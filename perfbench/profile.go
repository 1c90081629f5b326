package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The CPU profile the traced run takes is decoded here with a minimal
// reader of the pprof protobuf format (profile.proto), which keeps the
// benchmark on the standard library.

// layers are the repository's modules the per-layer metrics name, in the
// order the profile table prints them.
var layers = []string{"dataset", "solver", "kernel", "collective", "core", "watchdog",
	"simnet", "transport", "wire", "wlg", "runtime"}

// modulePrefix is the import path prefix of the repository's packages.
const modulePrefix = "psrahgadmm/internal/"

// layerOfPackage maps a repository package to its layer: sparse and vec
// are the kernel layer, every other package is a layer of its own name.
func layerOfPackage(pkg string) string {
	switch pkg {
	case "sparse", "vec":
		return "kernel"
	}
	return pkg
}

// attribute returns the layer a sample's stack (leaf first) is charged to
// and whether the CRC32 code was on it. A sample belongs to the innermost
// repository frame, so standard-library work (memmove, syscalls, hashing)
// is charged to the layer that called it. Stacks without a repository
// frame belong to the Go runtime, or to "bench" when they run the
// benchmark's own code or the profiler.
func attribute(frames []string) (layer string, crc bool) {
	for _, f := range frames {
		if strings.HasPrefix(f, "hash/crc32.") {
			crc = true
		}
		if strings.HasPrefix(f, modulePrefix) {
			pkg := f[len(modulePrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return layerOfPackage(pkg), crc
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "runtime/pprof.") {
			return "bench", false
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[len(frames)-1], "runtime.") {
		return "runtime", false
	}
	return "other", false
}

// cpuShares is a profile's sample count per layer.
type cpuShares struct {
	total   int64
	byLayer map[string]int64
	crcWire int64 // samples in CRC32 code charged to the wire layer
}

func (c cpuShares) frac(layer string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byLayer[layer]) / float64(c.total)
}

// named is the share of samples charged to one of the repository's layers
// or the Go runtime.
func (c cpuShares) named() float64 {
	if c.total == 0 {
		return 0
	}
	var n int64
	for l, v := range c.byLayer {
		if l != "bench" && l != "other" {
			n += v
		}
	}
	return float64(n) / float64(c.total)
}

func (c cpuShares) print(w io.Writer, cpuSPerIter float64) {
	names := make([]string, 0, len(c.byLayer))
	for l := range c.byLayer {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return c.byLayer[names[i]] > c.byLayer[names[j]] })
	fmt.Fprintf(w, "  %-12s %8s %7s %14s\n", "layer", "samples", "cpu%", "cpu_ms/iter")
	for _, l := range names {
		f := c.frac(l)
		fmt.Fprintf(w, "  %-12s %8d %6.1f%% %14.3f\n", l, c.byLayer[l], 100*f, f*cpuSPerIter*1e3)
	}
}

// sharesFromProfile decodes a gzipped pprof CPU profile and charges each
// sample's count to a layer.
func sharesFromProfile(gz []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	out := cpuShares{byLayer: map[string]int64{}}
	var frames []string
	for _, s := range p.samples {
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcName[fn]))
			}
		}
		layer, crc := attribute(frames)
		out.byLayer[layer] += s.count
		out.total += s.count
		if crc && layer == "wire" {
			out.crcWire += s.count
		}
	}
	return out, nil
}

type pbSample struct {
	locs  []uint64 // leaf first
	count int64
}

type pbProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location → function ids, innermost first
	funcName map[uint64]int64    // function → string table index
	strs     []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

var errProto = errors.New("malformed protobuf")

// pbReader walks the fields of one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next reads one field: its number, wire type, varint value (types 0, 1
// and 5 are returned in val) and payload (type 2).
func (r *pbReader) next() (num int, typ int, val uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return num, typ, val, data, err
}

// uints appends a repeated integer field, packed (type 2) or not.
func uints(dst []uint64, typ int, val uint64, data []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeProfile reads the fields of profile.proto the attribution needs:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func decodeProfile(raw []byte) (*pbProfile, error) {
	p := &pbProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, typ, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2:
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			id, fns, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			p.locFuncs[id] = fns
		case 5:
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			p.funcName[id] = name
		case 6:
			if typ != 2 {
				return nil, errProto
			}
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (pbSample, error) {
	var s pbSample
	var vals []uint64
	r := pbReader{b}
	for len(r.b) > 0 {
		num, typ, val, data, err := r.next()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			s.locs, err = uints(s.locs, typ, val, data)
		case 2:
			vals, err = uints(vals, typ, val, data)
		}
		if err != nil {
			return s, err
		}
	}
	if len(vals) > 0 {
		s.count = int64(vals[0])
	}
	return s, nil
}

func decodeLocation(b []byte) (id uint64, fns []uint64, err error) {
	r := pbReader{b}
	for len(r.b) > 0 {
		num, _, val, data, err := r.next()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			id = val
		case 4: // Line{function_id = 1, line = 2}
			lr := pbReader{data}
			for len(lr.b) > 0 {
				n, _, v, _, err := lr.next()
				if err != nil {
					return 0, nil, err
				}
				if n == 1 {
					fns = append(fns, v)
				}
			}
		}
	}
	return id, fns, nil
}

func decodeFunction(b []byte) (id uint64, name int64, err error) {
	r := pbReader{b}
	for len(r.b) > 0 {
		num, _, val, _, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			id = val
		case 2:
			name = int64(val)
		}
	}
	return id, name, nil
}
