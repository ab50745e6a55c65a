package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"transedge/internal/protocol"
)

// keyspace is the benchmark's generated input universe: key names, their
// owning partition (the system's own partition function, so reads can
// target one key per cluster), and a seeded per-cluster popularity order
// for skewed draws. Everything the system receives is derived from it and
// the workload seed.
type keyspace struct {
	keys      []string
	byCluster [][]int // key indices owned by each cluster, in popularity order
	clusters  int
}

func newKeyspace(n, clusters int, seed int64) *keyspace {
	ks := &keyspace{keys: make([]string, n), byCluster: make([][]int, clusters), clusters: clusters}
	part := protocol.Partitioner{N: int32(clusters)}
	for i := range ks.keys {
		ks.keys[i] = fmt.Sprintf("k%07d", i)
		c := part.Of(ks.keys[i])
		ks.byCluster[c] = append(ks.byCluster[c], i)
	}
	// The popularity order is a seeded shuffle, so which keys are hot
	// changes with the seed while the skew itself does not.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, idx := range ks.byCluster {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return ks
}

// initialData is the genesis load: every key at sequence 0.
func (ks *keyspace) initialData() map[string][]byte {
	data := make(map[string][]byte, len(ks.keys))
	for _, k := range ks.keys {
		data[k] = encodeValue(k, 0)
	}
	return data
}

// encodeValue builds a valueSize-byte payload naming its key and the
// per-key write sequence that installed it, so every read can be decoded
// into the exact version it observed.
func encodeValue(key string, seq int64) []byte {
	v := make([]byte, valueSize)
	n := copy(v, key+"#"+strconv.FormatInt(seq, 10)+"#")
	for i := n; i < len(v); i++ {
		v[i] = byte('a' + i%26)
	}
	return v
}

// decodeValue recovers (key, seq) from a payload written by encodeValue.
func decodeValue(v []byte) (key string, seq int64, err error) {
	if len(v) != valueSize {
		return "", 0, fmt.Errorf("value is %d bytes, want %d", len(v), valueSize)
	}
	parts := strings.SplitN(string(v), "#", 3)
	if len(parts) != 3 {
		return "", 0, fmt.Errorf("value %.40q has no key#seq# prefix", v)
	}
	seq, err = strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("value %.40q: bad sequence: %v", v, err)
	}
	return parts[0], seq, nil
}

// stream draws one load source's inputs from its own seeded generator.
type stream struct {
	ks   *keyspace
	rng  *rand.Rand
	zipf []*rand.Zipf // per cluster; nil for uniform draws
	// deck holds the local/distributed choices left in the current pair:
	// each pair of transactions has one of each, in random order, so
	// every stretch of a run has the same mix.
	deck []bool
}

func newStream(ks *keyspace, seed int64, id int, zipfS float64) *stream {
	s := &stream{ks: ks, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(id)))}
	if zipfS > 1 {
		s.zipf = make([]*rand.Zipf, ks.clusters)
		for c, idx := range ks.byCluster {
			s.zipf[c] = rand.NewZipf(s.rng, zipfS, 1, uint64(len(idx)-1))
		}
	}
	return s
}

// pick draws one key of a cluster that passes ok and is not in taken.
// Skewed draws fall back to uniform after repeated rejections, so a hot
// key already in the transaction cannot livelock the draw.
func (s *stream) pick(cluster int, ok func(int) bool, taken map[int]bool) int {
	pool := s.ks.byCluster[cluster]
	for tries := 0; ; tries++ {
		var r int
		if s.zipf != nil && tries < 64 {
			r = int(s.zipf[cluster].Uint64())
		} else {
			r = s.rng.Intn(len(pool))
		}
		i := pool[r]
		if !taken[i] && (ok == nil || ok(i)) {
			taken[i] = true
			return i
		}
	}
}

// nextRead draws a verified read: perCluster distinct keys from every
// cluster (the paper's read-only shape).
func (s *stream) nextRead(perCluster int) []string {
	keys := make([]string, 0, perCluster*s.ks.clusters)
	taken := make(map[int]bool, perCluster*s.ks.clusters)
	for c := 0; c < s.ks.clusters; c++ {
		for j := 0; j < perCluster; j++ {
			keys = append(keys, s.ks.keys[s.pick(c, nil, taken)])
		}
	}
	return keys
}

// rwSpec is one read-write transaction: keys read, then keys written
// (blind writes, disjoint from the reads).
type rwSpec struct {
	reads, writes []string
	local         bool
}

// Read-write shape shared by every writer: 5 reads and 3 writes, half of
// the transactions confined to one partition.
const (
	rwReads  = 5
	rwWrites = 3
)

// nextRW draws a transaction whose writes all fall on keys owned (ok) by
// the calling writer. Distributed transactions place read i on cluster
// i mod clusters and write i on cluster (reads+i) mod clusters, so each
// spans every partition.
func (s *stream) nextRW(owned func(int) bool) rwSpec {
	taken := make(map[int]bool, rwReads+rwWrites)
	var sp rwSpec
	if len(s.deck) == 0 {
		first := s.rng.Intn(2) == 0
		s.deck = []bool{first, !first}
	}
	sp.local, s.deck = s.deck[0], s.deck[1:]
	home := s.rng.Intn(s.ks.clusters)
	for i := 0; i < rwReads; i++ {
		c := home
		if !sp.local {
			c = i % s.ks.clusters
		}
		sp.reads = append(sp.reads, s.ks.keys[s.pick(c, nil, taken)])
	}
	for i := 0; i < rwWrites; i++ {
		c := home
		if !sp.local {
			c = (rwReads + i) % s.ks.clusters
		}
		sp.writes = append(sp.writes, s.ks.keys[s.pick(c, owned, taken)])
	}
	return sp
}

// gap draws the next Poisson inter-arrival gap at rate requests/second.
func (s *stream) gap(rate float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
}
