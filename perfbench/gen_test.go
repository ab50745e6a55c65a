package main

import (
	"reflect"
	"testing"

	"transedge/internal/protocol"
)

func TestValueRoundTrip(t *testing.T) {
	v := encodeValue("k0000042", 17)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes", len(v))
	}
	k, s, err := decodeValue(v)
	if err != nil || k != "k0000042" || s != 17 {
		t.Fatalf("decode = %q %d %v", k, s, err)
	}
	if _, _, err := decodeValue(v[:10]); err == nil {
		t.Error("short value decoded")
	}
	bad := append([]byte(nil), v...)
	copy(bad, "k0000042#x#")
	if _, _, err := decodeValue(bad); err == nil {
		t.Error("bad sequence decoded")
	}
}

func TestStreamsAreSeededAndShaped(t *testing.T) {
	ks := newKeyspace(2000, clusters, 7)
	part := protocol.Partitioner{N: clusters}
	draw := func(seed int64) ([][]string, []rwSpec) {
		s := newStream(ks, seed, 1, 1.1)
		var reads [][]string
		var rws []rwSpec
		for i := 0; i < 50; i++ {
			reads = append(reads, s.nextRead(2))
			rws = append(rws, s.nextRW(func(i int) bool { return i%2 == 1 }))
		}
		return reads, rws
	}
	r1, w1 := draw(3)
	r2, w2 := draw(3)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(w1, w2) {
		t.Fatal("same seed gave different inputs")
	}
	if r3, _ := draw(4); reflect.DeepEqual(r1, r3) {
		t.Fatal("different seeds gave the same inputs")
	}
	index := map[string]int{}
	for i, k := range ks.keys {
		index[k] = i
	}
	for _, keys := range r1 {
		per := map[int32]int{}
		seen := map[string]bool{}
		for _, k := range keys {
			per[part.Of(k)]++
			if seen[k] {
				t.Fatalf("read %v repeats %s", keys, k)
			}
			seen[k] = true
		}
		for c := int32(0); c < clusters; c++ {
			if per[c] != 2 {
				t.Fatalf("read %v has %d keys in cluster %d", keys, per[c], c)
			}
		}
	}
	for _, sp := range w1 {
		if len(sp.reads) != rwReads || len(sp.writes) != rwWrites {
			t.Fatalf("shape %d/%d", len(sp.reads), len(sp.writes))
		}
		seen := map[string]bool{}
		parts := map[int32]bool{}
		for _, k := range append(append([]string(nil), sp.reads...), sp.writes...) {
			if seen[k] {
				t.Fatalf("transaction repeats %s", k)
			}
			seen[k] = true
			parts[part.Of(k)] = true
		}
		for _, k := range sp.writes {
			if index[k]%2 != 1 {
				t.Fatalf("write to %s, not owned by the writer", k)
			}
		}
		if sp.local != (len(parts) == 1) {
			t.Fatalf("local=%v but %d partitions", sp.local, len(parts))
		}
	}
}
