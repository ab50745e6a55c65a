package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one profile sample: its stack, innermost frame first, with
// inlined frames expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// readCPUProfile decodes the stacks of a gzipped pprof CPU profile, as
// runtime/pprof writes it. Only the fields attribution needs are read:
// samples (location IDs and values), locations (their line entries),
// functions (names), the string table and the sample types.
func readCPUProfile(raw []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []rawSample
		sampleTypes []int64                 // string index of each value's type
		locFuncs    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcNames   = map[uint64]int64{}    // function ID -> string index
		strs        []string
	)
	err = eachField(body, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return repeatedVarint(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeatedVarint(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
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
	valueIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{nanos: s.values[valueIdx]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				cs.stack = append(cs.stack, str(funcNames[f]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, handing varint
// values as v and length-delimited payloads as b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field tag")
		}
		msg = msg[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarint handles a repeated integer field in packed or unpacked
// form.
func repeatedVarint(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuLayers are the attributed layers: the program's internal packages,
// the benchmark's own code, and the runtime split into GC and the rest.
var cpuLayers = []string{"bft", "core", "client", "merkle", "store", "transport",
	"cryptoutil", "protocol", "wal", "bench", "runtime_gc", "runtime_other"}

const internalPrefix = "transedge/internal/"

// layerOf charges a stack to the innermost frame of this module: an
// internal package is its own layer (sub-packages fold into their parent,
// so store/lsm is store), and any other frame of the module is the
// benchmark's (package main). Standard-library frames are charged to their caller. A
// stack with no module frame is the runtime's: background GC work is
// runtime_gc, everything else runtime_other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix) {
			pkg := fn[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "/."); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "transedge/") {
			return "bench"
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime_gc"
		}
	}
	return "runtime_other"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcStart", "runtime.markroot"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isEd25519Verify matches the standard library's Ed25519 verification
// entry points (crypto/ed25519 and its FIPS module twin).
func isEd25519Verify(fn string) bool {
	return strings.HasPrefix(fn, "crypto/") && strings.Contains(fn, "ed25519.") &&
		(strings.Contains(fn, "ed25519.Verify") || strings.Contains(fn, "ed25519.verify"))
}

func isSHA256(fn string) bool {
	return strings.HasPrefix(fn, "crypto/") && strings.Contains(fn, "sha256.")
}

// verifyCaller names the protocol layer an Ed25519 verification serves:
// the innermost bft, core or client frame, or "other" when the stack has
// none (a verification worker goroutine).
func verifyCaller(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		for _, l := range []string{"bft", "core", "client"} {
			if strings.HasPrefix(pkg, l+".") {
				return l
			}
		}
	}
	return "other"
}

// cpuShares is a profile's attribution, each share a percentage of all
// sampled CPU time.
type cpuShares struct {
	totalNanos int64
	layer      map[string]float64
	verify     map[string]float64 // ed25519 verification by calling layer
	verifyAll  float64
	sha256     float64
}

func attribute(samples []cpuSample) cpuShares {
	sh := cpuShares{layer: map[string]float64{}, verify: map[string]float64{}}
	layer, verify := map[string]int64{}, map[string]int64{}
	var verifyAll, sha int64
	for _, s := range samples {
		sh.totalNanos += s.nanos
		layer[layerOf(s.stack)] += s.nanos
		var v, h bool
		for _, fn := range s.stack {
			v = v || isEd25519Verify(fn)
			h = h || isSHA256(fn)
		}
		if v {
			verifyAll += s.nanos
			verify[verifyCaller(s.stack)] += s.nanos
		}
		if h {
			sha += s.nanos
		}
	}
	pct := func(x int64) float64 {
		if sh.totalNanos == 0 {
			return 0
		}
		return 100 * float64(x) / float64(sh.totalNanos)
	}
	for k, v := range layer {
		sh.layer[k] = pct(v)
	}
	for k, v := range verify {
		sh.verify[k] = pct(v)
	}
	sh.verifyAll, sh.sha256 = pct(verifyAll), pct(sha)
	return sh
}
