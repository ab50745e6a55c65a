package merkle

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"transedge/internal/cryptoutil"
)

// katTree is the fixed five-key tree the known-answer tests pin.
func katTree() *Tree {
	t := New()
	for i, k := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		t = t.Insert([]byte(k), HashValue([]byte(fmt.Sprint(i+1))))
	}
	return t
}

func hexDigest(d Digest) string { return hex.EncodeToString(d[:]) }

// TestNodeHashKnownAnswers pins the node-hash framing: the digests below
// were computed outside Go from the HashConcat definition (each part
// preceded by its 8-byte big-endian length), so a silent change to the
// framing — or to the stack encoding of it — fails here.
func TestNodeHashKnownAnswers(t *testing.T) {
	kh, vh := HashKey([]byte("k")), HashValue([]byte("v"))
	l, r := cryptoutil.Hash([]byte("left")), cryptoutil.Hash([]byte("right"))
	for _, tc := range []struct {
		name string
		got  Digest
		want string
	}{
		{"leafHash", leafHash(kh, vh), "f98c6774805e463cdbd1e02e8f4c206041dbe5d3595e5cbe9e20eeb499d32001"},
		{"innerHash", innerHash(0x0102, l, r), "c71472ed9544dcbc9d22896624c5a582bdcbdb3c56f1e1cf6cf30ac43a512bfa"},
		{"EmptyRoot", EmptyRoot, "02afdd00d9d404e6916ad664cb24a0e6b00eada897aaea135dd6f1ad5b505714"},
		{"five-key root", katTree().Root(), "a567052f2d7953ed4fe1a067703fc57ebca1d4700d46cc6cd06ed75fc905d4c2"},
	} {
		if h := hexDigest(tc.got); h != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, h, tc.want)
		}
	}
	// The stack framing is HashConcat's, for every crit-bit value.
	if leafHash(kh, vh) != cryptoutil.HashConcat([]byte{leafTag}, kh[:], vh[:]) {
		t.Error("leafHash differs from HashConcat")
	}
	for bit := int16(0); bit < numBits; bit++ {
		if innerHash(bit, l, r) != cryptoutil.HashConcat([]byte{innerTag, byte(bit >> 8), byte(bit)}, l[:], r[:]) {
			t.Fatalf("innerHash(%d) differs from HashConcat", bit)
		}
	}
}

// multiFixture is a tree, its key/value model and a query over it.
type multiFixture struct {
	tr      *Tree
	valueOf map[string][]byte
}

func newMultiFixture(size int, seed int64) multiFixture {
	fx := multiFixture{tr: New(), valueOf: make(map[string][]byte, size)}
	for i := 0; i < size; i++ {
		k := fmt.Sprintf("op-%d", i)
		v := []byte(fmt.Sprintf("v-%d-%d", i, seed))
		fx.valueOf[k] = v
		fx.tr = fx.tr.Insert([]byte(k), HashValue(v))
	}
	return fx
}

// query maps selector bytes to keys: < 208 picks an existing key (mod
// size), anything else a fresh absent key.
func (fx multiFixture) query(sel []byte) [][]byte {
	out := make([][]byte, 0, len(sel))
	for i, b := range sel {
		if int(b) < 208 {
			out = append(out, []byte(fmt.Sprintf("op-%d", int(b)%len(fx.valueOf))))
		} else {
			out = append(out, []byte(fmt.Sprintf("absent-%d-%d", b, i)))
		}
	}
	return out
}

func (fx multiFixture) answers(query [][]byte) []KeyAnswer {
	out := make([]KeyAnswer, 0, len(query))
	for _, k := range query {
		if v, ok := fx.valueOf[string(k)]; ok {
			out = append(out, KeyAnswer{Key: k, Value: v, Found: true})
		} else {
			out = append(out, KeyAnswer{Key: k})
		}
	}
	return out
}

// errClass names the sentinel an error wraps, for comparing verdicts.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrProofShape):
		return "shape"
	case errors.Is(err, ErrBadProof):
		return "bad"
	default:
		return "other: " + err.Error()
	}
}

// mutateMulti applies fuzzer-chosen tampering to a copy of an honest
// proof and answer set. Each mutation takes three bytes: an operation
// and two operands. foreign lists keys an answer may be switched to,
// including keys the proof does not cover.
func mutateMulti(mp MultiProof, answers []KeyAnswer, foreign [][]byte, muts []byte) (MultiProof, []KeyAnswer) {
	nodes := append([]MultiNode(nil), mp.Nodes...)
	ans := append([]KeyAnswer(nil), answers...)
	for len(muts) >= 3 {
		op, a, b := muts[0], int(muts[1]), muts[2]
		muts = muts[3:]
		if len(nodes) > 0 {
			i := a % len(nodes)
			switch op % 13 {
			case 0: // kind, including invalid ones
				nodes[i].Kind = b % 7
			case 1: // crit bit
				nodes[i].Bit ^= int16(1) << (b % 10)
			case 2: // crit bit equal to a neighbour's
				nodes[i].Bit = nodes[int(b)%len(nodes)].Bit
			case 3: // sibling
				nodes[i].Sibling[b%32] ^= 1 << (b % 8)
			case 4: // explicit leaf hashes
				nodes[i].KeyHash, nodes[i].ValHash = nodes[i].ValHash, nodes[i].KeyHash
			case 5: // dropped node
				nodes = append(nodes[:i], nodes[i+1:]...)
			case 6: // duplicated node
				nodes = append(nodes[:i+1], nodes[i:]...)
			case 7: // swapped nodes
				j := int(b) % len(nodes)
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
		}
		if len(ans) > 0 {
			i := a % len(ans)
			switch op % 13 {
			case 8: // swapped answers' values and verdicts
				j := int(b) % len(ans)
				ans[i].Value, ans[j].Value = ans[j].Value, ans[i].Value
				ans[i].Found, ans[j].Found = ans[j].Found, ans[i].Found
			case 9: // flipped verdict
				if ans[i].Found {
					ans[i] = KeyAnswer{Key: ans[i].Key}
				} else {
					ans[i] = KeyAnswer{Key: ans[i].Key, Value: []byte{b}, Found: true}
				}
			case 10: // dropped answer
				ans = append(ans[:i], ans[i+1:]...)
			case 11: // duplicated answer, possibly with another value
				dup := ans[i]
				if b&1 == 1 {
					dup.Value = []byte{b}
				}
				ans = append(ans, dup)
			case 12: // another key, same claim
				ans[i].Key = foreign[int(b)%len(foreign)]
			}
		}
	}
	return MultiProof{Nodes: nodes}, ans
}

// FuzzVerifyMultiAgainstReference builds a tree and query from the fuzz
// input, checks ProveMulti against the reference prover, then tampers
// with the honest proof and answers and requires VerifyMulti and the
// reference verifier to agree on accept/reject and on the error class.
// Honest proofs must also cost both verifiers the same node hashes.
func FuzzVerifyMultiAgainstReference(f *testing.F) {
	f.Add(int64(1), []byte{5, 3, 0, 1, 2}, []byte{})
	f.Add(int64(2), []byte{0, 0, 250}, []byte{9, 0, 0})
	f.Add(int64(3), []byte{200, 199, 198, 7, 7, 7}, []byte{3, 1, 4, 5, 2, 0})
	f.Add(int64(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{0, 2, 4, 1, 3, 3})
	f.Add(int64(5), []byte{12, 250, 13, 251}, []byte{8, 0, 1, 11, 2, 3})
	f.Add(int64(6), []byte{40, 41}, []byte{6, 1, 0, 7, 0, 3, 10, 0, 0})
	f.Add(int64(7), []byte{3, 30, 252}, []byte{2, 2, 0, 12, 1, 7})
	f.Add(int64(8), []byte{9, 253}, []byte{12, 0, 3, 12, 1, 200})
	f.Fuzz(func(t *testing.T, seed int64, sel, muts []byte) {
		if len(sel) == 0 || len(sel) > 40 || len(muts) > 30 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		fx := newMultiFixture(1+rng.Intn(150), seed)
		query := fx.query(sel)
		mp, err := fx.tr.ProveMulti(query)
		if err != nil {
			t.Fatalf("ProveMulti: %v", err)
		}
		ref, _ := fx.tr.proveMultiRef(query)
		if !reflect.DeepEqual(mp, ref) {
			t.Fatalf("ProveMulti differs from the reference prover")
		}
		root := fx.tr.Root()
		honest := fx.answers(query)
		start := HashOps()
		if err := VerifyMulti(root, honest, mp); err != nil {
			t.Fatalf("honest proof rejected: %v", err)
		}
		mid := HashOps()
		if err := verifyMultiRef(root, honest, mp); err != nil {
			t.Fatalf("reference rejects honest proof: %v", err)
		}
		if got, want := mid-start, HashOps()-mid; got != want {
			t.Fatalf("VerifyMulti hashed %d nodes, reference %d", got, want)
		}
		foreign := fx.query([]byte{sel[0] + 1, sel[0] + 97, 220, 230})
		p, ans := mutateMulti(mp, honest, foreign, muts)
		got, want := VerifyMulti(root, ans, p), verifyMultiRef(root, ans, p)
		if errClass(got) != errClass(want) {
			t.Fatalf("tampered proof: VerifyMulti %q (%v), reference %q (%v)", errClass(got), got, errClass(want), want)
		}
	})
}

// TestProveMultiMatchesReference: the in-place partition emits exactly
// the reference prover's nodes, for any key order and duplicates.
func TestProveMultiMatchesReference(t *testing.T) {
	fx := newMultiFixture(2000, 9)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		sel := make([]byte, 1+rng.Intn(30))
		rng.Read(sel)
		query := fx.query(sel)
		got, err := fx.tr.ProveMulti(query)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fx.tr.proveMultiRef(query)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ProveMulti differs from the reference", trial)
		}
		if cap(got.Nodes) != len(got.Nodes) {
			t.Fatalf("trial %d: node slice has %d slack", trial, cap(got.Nodes)-len(got.Nodes))
		}
	}
}

// TestVerifyMultiErrorPrecedence: when a proof fails in several ways,
// the verdict follows the reference's order (shape, membership, absence
// by position, unresolved leaf, root) however the failures lie in the
// preorder.
func TestVerifyMultiErrorPrecedence(t *testing.T) {
	fx := newMultiFixture(300, 11)
	query := fx.query([]byte{1, 2, 250, 90, 251, 160})
	mp, err := fx.tr.ProveMulti(query)
	if err != nil {
		t.Fatal(err)
	}
	root := fx.tr.Root()
	honest := fx.answers(query)
	check := func(name string, ans []KeyAnswer, p MultiProof, want string) {
		t.Helper()
		got, ref := VerifyMulti(root, ans, p), verifyMultiRef(root, ans, p)
		if errClass(got) != want || errClass(ref) != want {
			t.Errorf("%s: VerifyMulti %v, reference %v; want %s", name, got, ref, want)
		}
	}
	// A forged membership early in the preorder and trailing junk: the
	// shape error wins.
	forged := append([]KeyAnswer(nil), honest...)
	forged[2] = KeyAnswer{Key: forged[2].Key, Value: []byte("x"), Found: true}
	trailing := MultiProof{Nodes: append(append([]MultiNode(nil), mp.Nodes...), MultiNode{Kind: MultiLeafRef})}
	check("forged+trailing", forged, trailing, "shape")
	check("forged", forged, mp, "bad")
	// A crit bit equal to its parent's, with a forged answer beside it.
	misordered := MultiProof{Nodes: append([]MultiNode(nil), mp.Nodes...)}
	misordered.Nodes[1].Bit = misordered.Nodes[0].Bit
	check("forged+misordered", forged, misordered, "shape")
	// A hidden membership leaves a ref leaf unresolved (shape); an
	// absence claimed for a key another answer binds fails (bad). The
	// lower answer position wins, in either order.
	selfAndHidden := func(selfAt, hiddenAt int) []KeyAnswer {
		ans := append([]KeyAnswer(nil), honest...)
		ans = append(ans, ans[selfAt])
		ans[selfAt] = KeyAnswer{Key: ans[selfAt].Key}
		ans[hiddenAt] = KeyAnswer{Key: ans[hiddenAt].Key}
		return ans
	}
	check("self-claim before hidden", selfAndHidden(0, 1), mp, "bad")
	check("hidden before self-claim", selfAndHidden(1, 0), mp, "shape")
	// No answers at all: every ref leaf is unresolved.
	check("no answers", nil, mp, "shape")
	check("honest", honest, mp, "ok")
	other := fx.tr.Insert([]byte("one-more"), HashValue([]byte("v")))
	if err := VerifyMulti(other.Root(), honest, mp); !errors.Is(err, ErrBadProof) {
		t.Errorf("wrong root: got %v", err)
	}
}

// TestVerifyMultiRejectsUncoveredKeys: answers must stay on the paths
// the proof covers. An answer for a key the proof prunes away fails,
// whatever it claims. An explicit (absence-terminal) leaf proves its own
// binding and every other key's absence there, but not its own absence.
func TestVerifyMultiRejectsUncoveredKeys(t *testing.T) {
	fx := newMultiFixture(500, 14)
	root := fx.tr.Root()
	query := fx.query([]byte{5, 250})
	mp, err := fx.tr.ProveMulti(query)
	if err != nil {
		t.Fatal(err)
	}
	honest := fx.answers(query)
	check := func(name string, ans []KeyAnswer, want string) {
		t.Helper()
		got, ref := VerifyMulti(root, ans, mp), verifyMultiRef(root, ans, mp)
		if errClass(got) != want || errClass(ref) != want {
			t.Errorf("%s: VerifyMulti %v, reference %v; want %s", name, got, ref, want)
		}
	}
	// A key whose path leaves the proof: covering it too needs more nodes.
	var off []byte
	for i := 0; off == nil; i++ {
		k := []byte(fmt.Sprintf("op-%d", i))
		if wider, _ := fx.tr.ProveMulti(append(query, k)); len(wider.Nodes) > len(mp.Nodes) {
			off = k
		}
	}
	check("uncovered membership", append(honest, KeyAnswer{Key: off, Value: fx.valueOf[string(off)], Found: true}), "bad")
	check("uncovered absence", append(honest, KeyAnswer{Key: off}), "bad")

	var other *MultiNode
	for i := range mp.Nodes {
		if mp.Nodes[i].Kind == MultiLeafOther {
			other = &mp.Nodes[i]
		}
	}
	if other == nil {
		t.Fatal("proof of an absent key has no explicit leaf")
	}
	var term []byte
	for k := range fx.valueOf {
		if HashKey([]byte(k)) == other.KeyHash {
			term = []byte(k)
		}
	}
	check("terminal leaf's own binding", append(honest, KeyAnswer{Key: term, Value: fx.valueOf[string(term)], Found: true}), "ok")
	check("terminal leaf's key claimed absent", append(honest, KeyAnswer{Key: term}), "bad")
	check("terminal leaf's key with another value", append(honest, KeyAnswer{Key: term, Value: []byte("x"), Found: true}), "bad")
}

// TestMultiProofAllocs pins the read path's allocation budget: node
// hashing allocates nothing, ProveMulti allocates its hashed-key slice
// and the exact-size node slice, and VerifyMulti allocates nothing for
// up to routeStack answers.
func TestMultiProofAllocs(t *testing.T) {
	kh, vh := HashKey([]byte("k")), HashValue([]byte("v"))
	if n := testing.AllocsPerRun(100, func() { leafHash(kh, vh) }); n != 0 {
		t.Errorf("leafHash: %v allocs", n)
	}
	if n := testing.AllocsPerRun(100, func() { innerHash(7, kh, vh) }); n != 0 {
		t.Errorf("innerHash: %v allocs", n)
	}
	fx := newMultiFixture(20000, 12)
	root := fx.tr.Root()
	for _, k := range []int{1, 10} {
		sel := make([]byte, k)
		for i := range sel {
			sel[i] = byte(17 * i)
		}
		sel[k-1] = 255 // one absent key
		query := fx.query(sel)
		answers := fx.answers(query)
		mp, err := fx.tr.ProveMulti(query)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { fx.tr.ProveMulti(query) }); n > 2 {
			t.Errorf("ProveMulti, %d keys: %v allocs, want <= 2", k, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := VerifyMulti(root, answers, mp); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("VerifyMulti, %d keys: %v allocs, want 0", k, n)
		}
	}
}

func benchQueries(b *testing.B, k int) (multiFixture, [][]byte, []KeyAnswer) {
	fx := newMultiFixture(20000, 13)
	sel := make([]byte, k)
	for i := range sel {
		sel[i] = byte(23 * i)
	}
	query := fx.query(sel)
	return fx, query, fx.answers(query)
}

func BenchmarkProveMulti(b *testing.B) {
	for _, k := range []int{1, 10} {
		fx, query, _ := benchQueries(b, k)
		b.Run(fmt.Sprintf("keys=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fx.tr.ProveMulti(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVerifyMulti(b *testing.B) {
	for _, k := range []int{1, 10} {
		fx, query, answers := benchQueries(b, k)
		mp, err := fx.tr.ProveMulti(query)
		if err != nil {
			b.Fatal(err)
		}
		root := fx.tr.Root()
		b.Run(fmt.Sprintf("keys=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := VerifyMulti(root, answers, mp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
