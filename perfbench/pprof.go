package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes just enough of the pprof profile.proto format to
// attribute CPU self time to functions: sample types, samples, locations,
// functions and the string table. Field numbers follow
// github.com/google/pprof/proto/profile.proto.

// selfTimes decodes a (gzipped) CPU profile and returns each function's
// self time in the profile's CPU unit (nanoseconds for runtime/pprof): a
// sample is charged to the innermost function of its leaf location.
func selfTimes(raw []byte) (map[string]int64, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []sample
		locFunc     = map[uint64]uint64{} // location id → innermost function id
		funcName    = map[uint64]int64{}  // function id → string index
	)
	err := protoFields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := protoFields(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, wt, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, wt, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	col := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if len(s.locs) == 0 || col >= len(s.vals) {
			continue
		}
		out[str(funcName[locFunc[s.locs[0]]])] += s.vals[col]
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or one element at a time (wire type 0).
func appendPacked(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and wire type plus its varint value (wire type 0) or its bytes
// (wire type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pkgOf returns the import path of a symbol such as
// "churnreg/internal/wire.(*Scanner).Next" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// selfGroups are the buckets regserve's CPU self time is reported in, in
// output order.
var selfGroups = []string{"wire", "nettransport", "shard", "esyncreg", "nodeops", "runtime", "syscall", "other"}

// runtimeSyscalls are runtime functions that are themselves system calls;
// CPU charged to them is kernel time, so it counts as syscall.
var runtimeSyscalls = map[string]bool{
	"runtime.futex": true, "runtime.epollwait": true, "runtime.write1": true,
	"runtime.read": true, "runtime.usleep": true, "runtime.osyield": true,
}

// groupOf maps a function to its self-time bucket.
func groupOf(fn string) string {
	if runtimeSyscalls[fn] {
		return "syscall"
	}
	switch pkg := pkgOf(fn); {
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/syscall/unix":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "runtime"
	case strings.HasPrefix(pkg, "churnreg/internal/"):
		name := strings.TrimPrefix(pkg, "churnreg/internal/")
		for _, g := range selfGroups[:5] {
			if name == g {
				return g
			}
		}
	}
	return "other"
}

// groupSelf folds per-function self times into selfGroups buckets.
func groupSelf(self map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(selfGroups))
	for fn, v := range self {
		out[groupOf(fn)] += v
	}
	return out
}
