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

// cpuBuckets groups a CPU profile's samples by package, in the order
// reported. A function belongs to the first bucket one of whose packages is
// its package or a parent of it.
var cpuBuckets = []struct {
	name string
	pkgs []string
}{
	{"serve", []string{"spacx/internal/serve"}},
	{"sim", []string{"spacx/internal/sim"}},
	{"dataflow", []string{"spacx/internal/dataflow"}},
	{"network", []string{"spacx/internal/network", "spacx/internal/photonic"}},
	{"exp", []string{"spacx/internal/exp"}},
	{"eventsim", []string{"spacx/internal/eventsim"}},
	{"obs", []string{"spacx/internal/obs"}},
	{"encoding_json", []string{"encoding/json"}},
	{"net", []string{"net", "crypto", "bufio", "internal/poll", "syscall"}},
	{"runtime", []string{"runtime", "internal/runtime"}},
	{"other", nil},
}

// cpuShares decodes a gzipped pprof CPU profile and returns each bucket's
// share of the sampled CPU time, and that time in milliseconds. A sample
// goes to the innermost frame of its stack that is in a bucket other than
// runtime and other, so allocation, copying and hashing count against the
// package that asked for them; a stack with no such frame (garbage
// collection workers, the scheduler) goes to its leaf's bucket.
func cpuShares(gz []byte) (map[string]float64, float64, error) {
	samples, err := cpuSamples(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		total += s.ns
		b := "other"
		for i, fn := range s.stack {
			fb := bucketOf(fn)
			if i == 0 {
				b = fb
				if !strings.Contains(fn, ".") {
					b = "runtime" // assembly helpers such as aeshashbody
				}
			}
			if fb != "runtime" && fb != "other" {
				b = fb
				break
			}
		}
		shares[b] += s.ns
	}
	for _, b := range cpuBuckets {
		shares[b.name] = ratio(shares[b.name], total)
	}
	return shares, total / 1e6, nil
}

func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	for _, b := range cpuBuckets {
		for _, p := range b.pkgs {
			if pkg == p || strings.HasPrefix(pkg, p+"/") {
				return b.name
			}
		}
	}
	return "other"
}

// profSample is one profile sample: its stack, leaf first, with inlined
// functions expanded, and its CPU nanoseconds.
type profSample struct {
	stack []string
	ns    float64
}

// cpuSamples decodes a gzipped CPU profile, reading only the
// profile.proto fields it needs.
func cpuSamples(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		ns   int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var locs, vals []uint64
			if err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(&locs, v, d)
				case 2:
					return repeated(&vals, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				samples = append(samples, sample{locs: locs, ns: int64(vals[len(vals)-1])})
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := fields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		cs := profSample{ns: float64(s.ns)}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i, ok := fnName[fn]; ok && i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its integer value (data nil) or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
