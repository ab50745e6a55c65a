package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// A tiny protobuf writer, enough to build a canned pprof profile.
func pbVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func pbInt(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	return append(pbVarint(b, uint64(len(payload))), payload...)
}

// cannedProfile encodes a CPU profile whose samples exercise each
// attribution rule. Function i+1 is named funcs[i]; each location lists
// function IDs innermost first (several = inlined frames).
func cannedProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := []string{
		"crypto/ed25519.Verify",                                  // 1
		"transedge/internal/cryptoutil.Verify",                   // 2
		"transedge/internal/bft.(*Replica).onPrepare",            // 3
		"runtime.gcDrain",                                        // 4
		"runtime.gcBgMarkWorker",                                 // 5
		"runtime.mallocgc",                                       // 6
		"transedge/internal/store/lsm.(*Engine).get",             // 7
		"main.(*run).doRead",                                     // 8
		"crypto/internal/fips140/sha256.block",                   // 9
		"transedge/internal/merkle.hashNode",                     // 10
		"runtime.futex",                                          // 11
		"transedge/internal/core.(*Node).verifyHeaderCert.func1", // 12
	}
	locs := [][]uint64{{1, 2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}, {11}, {12}}
	samples := []struct {
		locs  []uint64
		nanos uint64
	}{
		{[]uint64{1, 2}, 30e6},    // verify inlined into cryptoutil, called by bft
		{[]uint64{3, 4}, 10e6},    // background GC
		{[]uint64{5, 6, 7}, 20e6}, // allocation charged to store (lsm folds in)
		{[]uint64{8, 9, 7}, 20e6}, // hashing charged to merkle
		{[]uint64{5, 7}, 10e6},    // allocation in the benchmark itself
		{[]uint64{10}, 5e6},       // scheduler
		{[]uint64{1, 11}, 5e6},    // verify called by core
	}
	var p []byte
	vt := func(typ, unit uint64) []byte { return pbInt(pbInt(nil, 1, typ), 2, unit) }
	p = pbBytes(p, 1, vt(1, 2))
	p = pbBytes(p, 1, vt(3, 4))
	for _, s := range samples {
		var packed []byte
		for _, l := range s.locs {
			packed = pbVarint(packed, l)
		}
		m := pbBytes(nil, 1, packed) // packed location IDs
		m = pbInt(m, 2, 1)           // unpacked values: count,
		m = pbInt(m, 2, s.nanos)     // then cpu nanoseconds
		p = pbBytes(p, 2, m)
	}
	for i, fns := range locs {
		m := pbInt(nil, 1, uint64(i+1))
		for _, f := range fns {
			m = pbBytes(m, 4, pbInt(pbInt(nil, 1, f), 2, 99))
		}
		p = pbBytes(p, 4, m)
	}
	for i, name := range funcs {
		m := pbInt(nil, 1, uint64(i+1))
		m = pbInt(m, 2, uint64(len(strs)))
		strs = append(strs, name)
		p = pbBytes(p, 5, m)
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeCannedProfile(t *testing.T) {
	samples, err := readCPUProfile(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("%d samples, want 7", len(samples))
	}
	if got := samples[0].stack; len(got) != 3 || got[0] != "crypto/ed25519.Verify" ||
		got[1] != "transedge/internal/cryptoutil.Verify" || got[2] != "transedge/internal/bft.(*Replica).onPrepare" {
		t.Fatalf("inlined stack decoded as %v", got)
	}
	sh := attribute(samples)
	if sh.totalNanos != 100e6 {
		t.Fatalf("total %d ns", sh.totalNanos)
	}
	want := map[string]float64{
		"cryptoutil": 35, "runtime_gc": 10, "store": 20, "merkle": 20,
		"bench": 10, "runtime_other": 5,
	}
	for _, l := range cpuLayers {
		if math.Abs(sh.layer[l]-want[l]) > 1e-9 {
			t.Errorf("layer %s = %g%%, want %g%%", l, sh.layer[l], want[l])
		}
	}
	if sh.verifyAll != 35 || sh.verify["bft"] != 30 || sh.verify["core"] != 5 || sh.verify["client"] != 0 {
		t.Errorf("ed25519 verify split %v (all %g)", sh.verify, sh.verifyAll)
	}
	if sh.sha256 != 20 {
		t.Errorf("sha256 = %g%%", sh.sha256)
	}
}

func TestReadCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := readCPUProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // length runs past the end
	zw.Close()
	if _, err := readCPUProfile(buf.Bytes()); err == nil {
		t.Error("truncated message accepted")
	}
}
