// Package merkle implements the Authenticated Data Structure (ADS) at the
// heart of TransEdge's trusted read path (paper Sec. 4.1, [38]).
//
// The tree is a persistent (copy-on-write) crit-bit Merkle trie keyed by
// the SHA-256 hash of the application key. Persistence gives TransEdge two
// properties it needs:
//
//   - every committed batch has its own immutable tree version whose root
//     is certified by f+1 replica signatures, and
//   - historical versions stay available so the second round of the
//     read-only protocol can serve (and prove) the state "as of batch i"
//     long after later batches committed.
//
// The root is a pure function of the key/value mapping — independent of
// insertion order — which is what allows every replica of a cluster to
// recompute and certify the same root without a trusted party.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"transedge/internal/cryptoutil"
)

// Digest aliases the system-wide SHA-256 digest type.
type Digest = cryptoutil.Digest

const (
	leafTag  = 0x00
	innerTag = 0x01
	numBits  = 256 // keys are SHA-256 hashes
)

// node is either a leaf (bit == -1) or an inner node splitting at a
// crit-bit index. Nodes are immutable after construction.
type node struct {
	bit     int16 // crit-bit index; -1 marks a leaf
	hash    Digest
	left    *node  // inner only: subtree with bit == 0
	right   *node  // inner only: subtree with bit == 1
	keyHash Digest // leaf only
	valHash Digest // leaf only
}

func bitAt(d Digest, i int) byte {
	return (d[i>>3] >> (7 - uint(i&7))) & 1
}

// firstDiffBit returns the index of the most significant bit at which a
// and b differ. The caller guarantees a != b.
func firstDiffBit(a, b Digest) int {
	for i := 0; i < len(a); i++ {
		if x := a[i] ^ b[i]; x != 0 {
			bit := 0
			for x&0x80 == 0 {
				x <<= 1
				bit++
			}
			return i*8 + bit
		}
	}
	panic("merkle: firstDiffBit called with equal digests")
}

// hashOps counts node-hash computations — an observability hook for the
// bulk-apply benchmarks and property tests, which assert that ApplyBulk
// hashes strictly fewer nodes than sequential insertion.
var hashOps atomic.Uint64

// HashOps returns the total node hashes computed since process start.
func HashOps() uint64 { return hashOps.Load() }

// Node hashes are cryptoutil.HashConcat over three parts — a tag (plus
// the crit bit for inner nodes) and two digests — but the length-framed
// bytes HashConcat would stream (each part preceded by its length as an
// 8-byte big-endian integer) are written into a fixed array here, so a
// node hash costs one sha256.Sum256 and no allocation. The known-answer
// tests pin the digests to HashConcat's. Below, [n] is the length n as 8
// big-endian bytes.

// leafHash hashes [1] tag [32] keyHash [32] valHash (89 bytes).
func leafHash(keyHash, valHash Digest) Digest {
	hashOps.Add(1)
	var b [8 + 1 + 8 + 32 + 8 + 32]byte
	b[7] = 1
	b[8] = leafTag
	b[16] = 32
	copy(b[17:49], keyHash[:])
	b[56] = 32
	copy(b[57:], valHash[:])
	return sha256.Sum256(b[:])
}

// innerHash hashes [3] tag bitHi bitLo [32] left [32] right (91 bytes).
func innerHash(bit int16, left, right Digest) Digest {
	hashOps.Add(1)
	var b [8 + 3 + 8 + 32 + 8 + 32]byte
	b[7] = 3
	b[8] = innerTag
	b[9] = byte(bit >> 8)
	b[10] = byte(bit)
	b[18] = 32
	copy(b[19:51], left[:])
	b[58] = 32
	copy(b[59:], right[:])
	return sha256.Sum256(b[:])
}

func newLeaf(keyHash, valHash Digest) *node {
	return &node{bit: -1, hash: leafHash(keyHash, valHash), keyHash: keyHash, valHash: valHash}
}

func newInner(bit int16, left, right *node) *node {
	return &node{bit: bit, hash: innerHash(bit, left.hash, right.hash), left: left, right: right}
}

// Tree is an immutable Merkle trie version. The zero value is not usable;
// call New. All update operations return a new version sharing structure
// with the receiver.
type Tree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of keys in this version.
func (t *Tree) Len() int { return t.size }

// EmptyRoot is the root digest of an empty tree.
var EmptyRoot = cryptoutil.Hash([]byte("transedge-merkle-empty"))

// Root returns the authenticated root digest of this version.
func (t *Tree) Root() Digest {
	if t.root == nil {
		return EmptyRoot
	}
	return t.root.hash
}

// HashKey maps an application key to its trie position.
func HashKey(key []byte) Digest { return cryptoutil.Hash(key) }

// HashValue maps a value to the leaf value digest.
func HashValue(value []byte) Digest { return cryptoutil.Hash(value) }

// Insert returns a new version with key bound to valHash.
func (t *Tree) Insert(key []byte, valHash Digest) *Tree {
	return t.InsertHashed(HashKey(key), valHash)
}

// InsertHashed is Insert for a pre-hashed key.
func (t *Tree) InsertHashed(keyHash, valHash Digest) *Tree {
	if t.root == nil {
		return &Tree{root: newLeaf(keyHash, valHash), size: 1}
	}
	leaf := findLeaf(t.root, keyHash)
	if leaf.keyHash == keyHash {
		return &Tree{root: replace(t.root, keyHash, valHash), size: t.size}
	}
	crit := int16(firstDiffBit(leaf.keyHash, keyHash))
	return &Tree{root: insertAt(t.root, crit, keyHash, valHash), size: t.size + 1}
}

// findLeaf walks to the leaf whose position keyHash's bits select.
func findLeaf(n *node, keyHash Digest) *node {
	for n.bit >= 0 {
		if bitAt(keyHash, int(n.bit)) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// replace copies the path to the existing leaf for keyHash and swaps in a
// new value hash.
func replace(n *node, keyHash, valHash Digest) *node {
	if n.bit < 0 {
		return newLeaf(keyHash, valHash)
	}
	if bitAt(keyHash, int(n.bit)) == 0 {
		return newInner(n.bit, replace(n.left, keyHash, valHash), n.right)
	}
	return newInner(n.bit, n.left, replace(n.right, keyHash, valHash))
}

// insertAt inserts a new leaf for keyHash, creating the split node at the
// crit-bit position.
func insertAt(n *node, crit int16, keyHash, valHash Digest) *node {
	if n.bit < 0 || n.bit > crit {
		nl := newLeaf(keyHash, valHash)
		if bitAt(keyHash, int(crit)) == 0 {
			return newInner(crit, nl, n)
		}
		return newInner(crit, n, nl)
	}
	if bitAt(keyHash, int(n.bit)) == 0 {
		return newInner(n.bit, insertAt(n.left, crit, keyHash, valHash), n.right)
	}
	return newInner(n.bit, n.left, insertAt(n.right, crit, keyHash, valHash))
}

// bulkDisabled reverts Apply to one-key-at-a-time insertion. A
// bench/test knob: the hotpath experiment flips it to record before/after
// rows.
var bulkDisabled atomic.Bool

// SetBulkApply toggles the single-pass bulk merge inside Apply (on by
// default).
func SetBulkApply(on bool) { bulkDisabled.Store(!on) }

// Apply returns a new version with every update applied. Updates with the
// same key keep the last value.
func (t *Tree) Apply(updates map[string]Digest) *Tree {
	if len(updates) == 0 {
		return t
	}
	if bulkDisabled.Load() {
		out := t
		for k, vh := range updates {
			out = out.Insert([]byte(k), vh)
		}
		return out
	}
	ups := make([]Update, 0, len(updates))
	for k, vh := range updates {
		ups = append(ups, Update{KeyHash: HashKey([]byte(k)), ValHash: vh})
	}
	return t.ApplyBulk(ups)
}

// Update is one pre-hashed key/value binding of a bulk apply.
type Update struct {
	KeyHash Digest
	ValHash Digest
}

// ApplyBulk returns a new version with every update applied in a single
// merge pass: the updates are sorted by key hash and merged into the
// persistent crit-bit trie recursively, so every trie node on an updated
// path is rebuilt — and hashed — exactly once, instead of once per
// inserted key as with sequential Insert. Duplicate key hashes keep the
// last occurrence. The input slice is reordered in place.
func (t *Tree) ApplyBulk(ups []Update) *Tree {
	if len(ups) == 0 {
		return t
	}
	sort.SliceStable(ups, func(i, j int) bool {
		return bytes.Compare(ups[i].KeyHash[:], ups[j].KeyHash[:]) < 0
	})
	// Collapse duplicate keys, keeping the last occurrence (stable sort
	// preserves input order within a key).
	w := 0
	for i := range ups {
		if i+1 < len(ups) && ups[i+1].KeyHash == ups[i].KeyHash {
			continue
		}
		ups[w] = ups[i]
		w++
	}
	ups = ups[:w]
	if t.root == nil {
		return &Tree{root: buildSubtree(ups), size: len(ups)}
	}
	root, added := bulkMerge(t.root, leftmostKey(t.root), ups)
	return &Tree{root: root, size: t.size + added}
}

// leftmostKey returns the key hash of the leftmost leaf under n; because
// every key in a subtree agrees on all bits above the subtree's crit bit,
// it represents the subtree's common prefix.
func leftmostKey(n *node) Digest {
	for n.bit >= 0 {
		n = n.left
	}
	return n.keyHash
}

// firstDiffBefore returns the index of the most significant bit at which
// a and b differ, or limit if they agree on every bit below it.
func firstDiffBefore(a, b Digest, limit int) int {
	bytesToCheck := (limit + 7) / 8
	for i := 0; i < bytesToCheck; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			bit := 0
			for x&0x80 == 0 {
				x <<= 1
				bit++
			}
			if d := i*8 + bit; d < limit {
				return d
			}
			return limit
		}
	}
	return limit
}

// splitAt partitions sorted updates that share all bits above bit into
// the zero-bit prefix and one-bit suffix at bit.
func splitAt(ups []Update, bit int) ([]Update, []Update) {
	i := sort.Search(len(ups), func(i int) bool { return bitAt(ups[i].KeyHash, bit) == 1 })
	return ups[:i], ups[i:]
}

// buildSubtree constructs the canonical crit-bit subtree over sorted,
// distinct key hashes.
func buildSubtree(ups []Update) *node {
	if len(ups) == 1 {
		return newLeaf(ups[0].KeyHash, ups[0].ValHash)
	}
	crit := int16(firstDiffBit(ups[0].KeyHash, ups[len(ups)-1].KeyHash))
	zeros, ones := splitAt(ups, int(crit))
	return newInner(crit, buildSubtree(zeros), buildSubtree(ones))
}

// bulkMerge merges sorted, distinct updates into the subtree rooted at n,
// whose common key prefix is represented by rep (the leftmost leaf's key
// hash). Returns the new subtree and how many keys were newly added.
func bulkMerge(n *node, rep Digest, ups []Update) (*node, int) {
	if len(ups) == 0 {
		return n, 0
	}
	if n.bit < 0 {
		return mergeLeaf(n, ups)
	}
	b := int(n.bit)
	// All keys in the subtree agree on bits above b, so rep stands in for
	// the whole subtree there; and since the updates are sorted, the
	// minimal divergence from that prefix is at one of the endpoints.
	dmin := firstDiffBefore(ups[0].KeyHash, rep, b)
	if d := firstDiffBefore(ups[len(ups)-1].KeyHash, rep, b); d < dmin {
		dmin = d
	}
	if dmin >= b {
		// Every update conforms to the prefix: route by this node's bit.
		zeros, ones := splitAt(ups, b)
		left, al := bulkMerge(n.left, rep, zeros)
		right, ar := bulkMerge(n.right, leftmostKey(n.right), ones)
		return newInner(n.bit, left, right), al + ar
	}
	// Some updates split off above this node, at bit dmin. Updates agreeing
	// with the prefix at dmin keep merging into n; the others form a fresh
	// sibling subtree under a new inner node at dmin.
	zeros, ones := splitAt(ups, dmin)
	conform, diverge := zeros, ones
	if bitAt(rep, dmin) == 1 {
		conform, diverge = ones, zeros
	}
	merged, added := bulkMerge(n, rep, conform)
	side := buildSubtree(diverge)
	if bitAt(rep, dmin) == 0 {
		return newInner(int16(dmin), merged, side), added + len(diverge)
	}
	return newInner(int16(dmin), side, merged), added + len(diverge)
}

// mergeLeaf merges updates into a single-leaf subtree: an update matching
// the leaf's key overwrites its value; the rest join it in a canonical
// subtree.
func mergeLeaf(leaf *node, ups []Update) (*node, int) {
	i := sort.Search(len(ups), func(i int) bool {
		return bytes.Compare(ups[i].KeyHash[:], leaf.keyHash[:]) >= 0
	})
	if i < len(ups) && ups[i].KeyHash == leaf.keyHash {
		return buildSubtree(ups), len(ups) - 1
	}
	merged := make([]Update, 0, len(ups)+1)
	merged = append(merged, ups[:i]...)
	merged = append(merged, Update{KeyHash: leaf.keyHash, ValHash: leaf.valHash})
	merged = append(merged, ups[i:]...)
	return buildSubtree(merged), len(ups)
}

// Get returns the value hash bound to key in this version.
func (t *Tree) Get(key []byte) (Digest, bool) {
	if t.root == nil {
		return Digest{}, false
	}
	kh := HashKey(key)
	leaf := findLeaf(t.root, kh)
	if leaf.keyHash != kh {
		return Digest{}, false
	}
	return leaf.valHash, true
}

// ProofStep is one level of a membership proof: the crit-bit index of the
// inner node and the hash of the sibling subtree not on the lookup path.
type ProofStep struct {
	Bit     int16
	Sibling Digest
}

// Proof is a membership proof for one key in one tree version, ordered
// from the root down to the leaf's parent.
type Proof struct {
	Steps []ProofStep
}

// Errors returned by proving and verification.
var (
	ErrNotFound   = errors.New("merkle: key not present in this version")
	ErrBadProof   = errors.New("merkle: proof does not verify")
	ErrProofShape = errors.New("merkle: malformed proof")
)

// Prove produces a membership proof that key -> valHash in this version.
// The returned value hash is the one bound in the tree.
func (t *Tree) Prove(key []byte) (Proof, Digest, error) {
	if t.root == nil {
		return Proof{}, Digest{}, ErrNotFound
	}
	kh := HashKey(key)
	var steps []ProofStep
	n := t.root
	for n.bit >= 0 {
		if bitAt(kh, int(n.bit)) == 0 {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: n.right.hash})
			n = n.left
		} else {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: n.left.hash})
			n = n.right
		}
	}
	if n.keyHash != kh {
		return Proof{}, Digest{}, ErrNotFound
	}
	return Proof{Steps: steps}, n.valHash, nil
}

// VerifyProof checks that proof authenticates key -> value under root.
// It recomputes the leaf hash from the raw key and value, folds the proof
// steps back to a root digest, and enforces the structural invariants of
// the crit-bit trie (strictly increasing bit indices, directions matching
// the key's bits) so a malicious server cannot splice subtrees.
func VerifyProof(root Digest, key, value []byte, proof Proof) error {
	kh := HashKey(key)
	h := leafHash(kh, HashValue(value))
	// Fold from the leaf upward: iterate steps in reverse.
	lastBit := int16(numBits)
	for i := len(proof.Steps) - 1; i >= 0; i-- {
		s := proof.Steps[i]
		if s.Bit < 0 || s.Bit >= numBits {
			return fmt.Errorf("%w: bit index %d out of range", ErrProofShape, s.Bit)
		}
		if s.Bit >= lastBit {
			return fmt.Errorf("%w: bit indices not strictly increasing root-to-leaf", ErrProofShape)
		}
		lastBit = s.Bit
		if bitAt(kh, int(s.Bit)) == 0 {
			h = innerHash(s.Bit, h, s.Sibling)
		} else {
			h = innerHash(s.Bit, s.Sibling, h)
		}
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// AbsenceProof proves a key is NOT bound in a tree version. In a crit-bit
// trie the structure is canonical for a given content set, so the lookup
// path for any key is forced by the certified root: the proof exhibits
// the leaf that the key's bits lead to (which would have to BE the key's
// leaf if the key were present) together with its path. A verifier checks
// the path shape, that every direction matches the requested key's bits,
// and that the terminal leaf holds a different key hash.
type AbsenceProof struct {
	Steps       []ProofStep
	LeafKeyHash Digest
	LeafValHash Digest
}

// ErrPresent is returned when asked to prove absence of a present key.
var ErrPresent = errors.New("merkle: key is present")

// ProveAbsent produces a non-membership proof for key.
func (t *Tree) ProveAbsent(key []byte) (AbsenceProof, error) {
	kh := HashKey(key)
	if t.root == nil {
		// The empty tree's well-known root is itself the proof.
		return AbsenceProof{}, nil
	}
	var steps []ProofStep
	n := t.root
	for n.bit >= 0 {
		if bitAt(kh, int(n.bit)) == 0 {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: n.right.hash})
			n = n.left
		} else {
			steps = append(steps, ProofStep{Bit: n.bit, Sibling: n.left.hash})
			n = n.right
		}
	}
	if n.keyHash == kh {
		return AbsenceProof{}, ErrPresent
	}
	return AbsenceProof{Steps: steps, LeafKeyHash: n.keyHash, LeafValHash: n.valHash}, nil
}

// VerifyAbsence checks that proof establishes key's absence under root.
func VerifyAbsence(root Digest, key []byte, proof AbsenceProof) error {
	kh := HashKey(key)
	if root == EmptyRoot {
		return nil // nothing is in the empty tree
	}
	if proof.LeafKeyHash == kh {
		return fmt.Errorf("%w: terminal leaf holds the key itself", ErrBadProof)
	}
	h := leafHash(proof.LeafKeyHash, proof.LeafValHash)
	lastBit := int16(numBits)
	for i := len(proof.Steps) - 1; i >= 0; i-- {
		s := proof.Steps[i]
		if s.Bit < 0 || s.Bit >= numBits {
			return fmt.Errorf("%w: bit index %d out of range", ErrProofShape, s.Bit)
		}
		if s.Bit >= lastBit {
			return fmt.Errorf("%w: bit indices not strictly increasing root-to-leaf", ErrProofShape)
		}
		lastBit = s.Bit
		// Directions are forced by the REQUESTED key's bits: this pins
		// the path to the one the canonical lookup would take.
		if bitAt(kh, int(s.Bit)) == 0 {
			h = innerHash(s.Bit, h, s.Sibling)
		} else {
			h = innerHash(s.Bit, s.Sibling, h)
		}
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// ExportLeaves returns every (keyHash, valHash) binding of this version
// in trie order (ascending key hash), for tests and offline tooling.
// Note that state transfer does NOT ship merkle leaves: it ships raw
// store entries (key, value, writer) and the receiver rebuilds the tree
// from them with Build, comparing the root against the certified one.
func (t *Tree) ExportLeaves() []Update {
	out := make([]Update, 0, t.size)
	t.Walk(func(keyHash, valHash Digest) {
		out = append(out, Update{KeyHash: keyHash, ValHash: valHash})
	})
	return out
}

// Build constructs a tree version directly from a set of bindings in one
// bulk pass (state-transfer install: a joining replica rebuilds the
// checkpoint tree from the snapshot and compares its root against the
// certified one). The input slice is reordered in place.
func Build(ups []Update) *Tree {
	return New().ApplyBulk(ups)
}

// Walk visits every (keyHash, valHash) leaf in the version, in trie order.
// Intended for tests and debugging tools.
func (t *Tree) Walk(fn func(keyHash, valHash Digest)) {
	var rec func(n *node)
	rec = func(n *node) {
		if n == nil {
			return
		}
		if n.bit < 0 {
			fn(n.keyHash, n.valHash)
			return
		}
		rec(n.left)
		rec(n.right)
	}
	rec(t.root)
}
