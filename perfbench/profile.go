package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
)

// This file folds runtime/pprof CPU profiles and runtime.MemProfile
// records into per-layer totals. The CPU profile is a gzipped
// profile.proto message; only the fields the fold needs are decoded
// (samples with their location ids, values and labels; locations with
// their inlined line chain; functions; the string table).

type pfunc struct{ name, file int64 }

type plabel struct{ key, str int64 }

type psample struct {
	locs   []uint64
	values []int64
	labels []plabel
}

// foldCPUProfile decodes a gzipped CPU profile and returns CPU ns by
// layer: each sample is charged to the layer of its innermost
// repository frame, or to runtime when it has none. Samples whose span
// label is in skipSpans are left out.
func foldCPUProfile(gz []byte, skipSpans map[string]bool) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("open cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]pfunc{}
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []psample
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			id, fns, err := decodeLocation(b)
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var f pfunc
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	spanKey := -1
	for i, s := range strs {
		if s == "span" {
			spanKey = i
		}
	}
	locLayer := map[uint64]string{}
	layerOfLoc := func(id uint64) (string, bool) {
		if l, ok := locLayer[id]; ok {
			return l, l != ""
		}
		for _, fid := range locs[id] {
			f := funcs[fid]
			if l, ok := frameLayer(str(f.name), str(f.file)); ok {
				locLayer[id] = l
				return l, true
			}
		}
		locLayer[id] = ""
		return "", false
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile sample without a cpu/nanoseconds value")
		}
		skip := false
		for _, lb := range s.labels {
			if int(lb.key) == spanKey && skipSpans[str(lb.str)] {
				skip = true
			}
		}
		if skip {
			continue
		}
		layer := "runtime"
		for _, id := range s.locs {
			if l, ok := layerOfLoc(id); ok {
				layer = l
				break
			}
		}
		out[layer] += s.values[1] // cpu/nanoseconds
	}
	return out, nil
}

func decodeSample(b []byte) (psample, error) {
	var s psample
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			return repeatedVarint(wire, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			return repeatedVarint(wire, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
		case 3:
			var lb plabel
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					lb.key = int64(v)
				case 2:
					lb.str = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, lb)
			return err
		}
		return nil
	})
	return s, err
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4:
			return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// repeatedVarint walks a repeated varint field in either encoding:
// packed (one length-delimited run) or one field per element.
func repeatedVarint(wire int, v uint64, packed []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: v holds
// varint and fixed-width values, b the bytes of length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// memRecords reads the allocation profile, keyed by call stack, with
// cumulative sampled object and byte counts. The profile is only as
// fresh as the last completed GC, so callers run runtime.GC first.
func memRecords() map[[32]uintptr][2]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[[32]uintptr][2]int64, n)
	for _, r := range recs[:n] {
		c := out[r.Stack0]
		out[r.Stack0] = [2]int64{c[0] + r.AllocObjects, c[1] + r.AllocBytes}
	}
	return out
}

// foldAllocs charges the allocations made between two memRecords
// readings to layers, scaling each stack's sampled count up by the
// sampling probability at the given MemProfileRate (the estimate
// runtime/pprof applies).
func foldAllocs(before, after map[[32]uintptr][2]int64, rate int) map[string]float64 {
	out := map[string]float64{}
	for stk, a := range after {
		b := before[stk]
		objs, size := a[0]-b[0], a[1]-b[1]
		if objs <= 0 {
			continue
		}
		est := float64(objs)
		if rate > 1 {
			avg := float64(size) / float64(objs)
			est /= 1 - math.Exp(-avg/float64(rate))
		}
		out[stackLayer(stk)] += est
	}
	return out
}

// stackLayer returns the layer of the innermost repository frame of a
// MemProfile stack, or runtime.
func stackLayer(stk [32]uintptr) string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		if l, ok := frameLayer(f.Function, f.File); ok {
			return l
		}
		if !more {
			return "runtime"
		}
	}
}
