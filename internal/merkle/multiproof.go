package merkle

import (
	"errors"
	"fmt"
)

// MultiProof is a compact proof for N keys in one tree version: the union
// of the keys' lookup paths, pruned — every subtree no path enters is
// replaced by its single hash, so a sibling shared by several paths is
// shipped (and re-hashed by the verifier) once instead of once per key.
// Membership and absence are co-proved by the same structure: the proof
// pins the full pruned shape of the certified tree along every path, so a
// key either terminates at its own leaf (membership) or at the leaf the
// canonical trie forces its bits to (absence).
//
// The proof is a preorder flattening. Leaves holding a REQUESTED key carry
// no digests at all (MultiLeafRef): the verifier recomputes the leaf hash
// from the raw key and served value, which is what binds the answer to the
// certified root. Leaves off the requested set (absence terminals) ship
// their key and value hashes like AbsenceProof does.
type MultiProof struct {
	Nodes []MultiNode
}

// MultiNode kinds. An inner node on ≥1 lookup path is materialized; when
// only one of its children is entered, the other is pruned to its hash and
// packed into the same node, so a single-key path costs exactly one
// (bit, sibling) pair per level — the same as a ProofStep.
const (
	// MultiInner: both children are entered; they follow in preorder,
	// left then right. Bit is valid.
	MultiInner uint8 = 1
	// MultiPrunedLeft: the left child is pruned to Sibling; the right
	// child follows. Bit is valid.
	MultiPrunedLeft uint8 = 2
	// MultiPrunedRight: the right child is pruned to Sibling; the left
	// child follows. Bit is valid.
	MultiPrunedRight uint8 = 3
	// MultiLeafRef: a leaf holding one of the requested keys. No payload;
	// the verifier resolves its hashes from the served answer.
	MultiLeafRef uint8 = 4
	// MultiLeafOther: a leaf holding an unrequested key (an absence
	// terminal). KeyHash/ValHash are valid.
	MultiLeafOther uint8 = 5
)

// MultiNode is one node of the flattened pruned subtree. Which fields are
// meaningful depends on Kind (see the kind constants).
type MultiNode struct {
	Kind    uint8
	Bit     int16
	Sibling Digest
	KeyHash Digest
	ValHash Digest
}

// ErrNoKeys is returned by ProveMulti for an empty key set.
var ErrNoKeys = errors.New("merkle: multi-proof over zero keys")

// ProveMulti produces one MultiProof covering every key (duplicates
// collapse). No node hashing happens here: the proof collects hashes the
// tree already holds. The empty tree yields an empty proof — EmptyRoot
// is well known, so the proof that nothing is present is the root itself.
func (t *Tree) ProveMulti(keys [][]byte) (MultiProof, error) {
	if len(keys) == 0 {
		return MultiProof{}, ErrNoKeys
	}
	khs := make([]Digest, len(keys))
	for i, k := range keys {
		khs[i] = HashKey(k)
	}
	return t.ProveMultiHashed(khs)
}

// ProveMultiHashed is ProveMulti for pre-hashed keys. The input slice is
// reordered in place.
//
// The keys are routed down the trie by partitioning khs in place at each
// crit bit, so sibling subtrees work on disjoint subranges and the output
// depends only on the tree's shape, never on the key order. A counting
// walk sizes the node slice exactly, so building the proof allocates
// that one slice and nothing else.
func (t *Tree) ProveMultiHashed(khs []Digest) (MultiProof, error) {
	if len(khs) == 0 {
		return MultiProof{}, ErrNoKeys
	}
	if t.root == nil {
		return MultiProof{}, nil
	}
	nodes := make([]MultiNode, 0, countMulti(t.root, khs))
	return MultiProof{Nodes: appendMulti(nodes, t.root, khs)}, nil
}

// partitionBit reorders khs so that the keys with a 0 at bit come first,
// and returns how many there are. Keys reaching a node need not share
// the subtree's prefix (absent keys route through it too), so the split
// is by the bit itself, not a search over sorted keys as in splitAt.
func partitionBit(khs []Digest, bit int16) int {
	i, j := 0, len(khs)
	for i < j {
		if bitAt(khs[i], int(bit)) == 0 {
			i++
			continue
		}
		j--
		khs[i], khs[j] = khs[j], khs[i]
	}
	return i
}

// countMulti returns how many proof nodes appendMulti will emit for the
// keys reaching n.
func countMulti(n *node, khs []Digest) int {
	if n.bit < 0 {
		return 1
	}
	z := partitionBit(khs, n.bit)
	switch {
	case z == len(khs):
		return 1 + countMulti(n.left, khs)
	case z == 0:
		return 1 + countMulti(n.right, khs)
	default:
		return 1 + countMulti(n.left, khs[:z]) + countMulti(n.right, khs[z:])
	}
}

// appendMulti appends the preorder proof nodes for the keys reaching n.
func appendMulti(nodes []MultiNode, n *node, khs []Digest) []MultiNode {
	if n.bit < 0 {
		for i := range khs {
			if khs[i] == n.keyHash {
				return append(nodes, MultiNode{Kind: MultiLeafRef})
			}
		}
		return append(nodes, MultiNode{Kind: MultiLeafOther, KeyHash: n.keyHash, ValHash: n.valHash})
	}
	z := partitionBit(khs, n.bit)
	switch {
	case z == len(khs):
		nodes = append(nodes, MultiNode{Kind: MultiPrunedRight, Bit: n.bit, Sibling: n.right.hash})
		return appendMulti(nodes, n.left, khs)
	case z == 0:
		nodes = append(nodes, MultiNode{Kind: MultiPrunedLeft, Bit: n.bit, Sibling: n.left.hash})
		return appendMulti(nodes, n.right, khs)
	default:
		nodes = append(nodes, MultiNode{Kind: MultiInner, Bit: n.bit})
		nodes = appendMulti(nodes, n.left, khs[:z])
		return appendMulti(nodes, n.right, khs[z:])
	}
}

// KeyAnswer is one key's claimed outcome, as served: the raw key, the
// value (meaningful when Found), and whether the key exists in the
// snapshot. VerifyMulti checks every answer against one proof.
type KeyAnswer struct {
	Key   []byte
	Value []byte
	Found bool
}

// route is one answer on its way down the proof: its hashed key and
// value, its index in the answer list, and whether it claims membership.
type route struct {
	kh, vh Digest
	idx    int
	found  bool
}

// routeStack is how many answers VerifyMulti routes without allocating.
const routeStack = 16

// Failure classes of a multi-proof, in the order VerifyMulti reports them
// when several occur: a malformed flattening first, then a membership
// claim the proof contradicts, then (by answer position) an absence
// claim, then a requested-key leaf no answer resolves, and last a root
// mismatch. The order is fixed so the verdict does not depend on where
// in the preorder a failure happens to be met.
const (
	failFound = iota + 1
	failAbsent
	failUnresolved
)

// multiVerifier is the state of one VerifyMulti pass.
type multiVerifier struct {
	nodes   []MultiNode
	pos     int
	answers []KeyAnswer
	// The first failure by the order above; failIdx breaks ties among
	// absent answers by position. Once set, no further node is hashed.
	fail    int
	failIdx int
	failErr error
}

// record keeps err if it ranks before the failure held so far.
func (v *multiVerifier) record(class, idx int, err error) {
	if v.fail == 0 || class < v.fail || (class == v.fail && class == failAbsent && idx < v.failIdx) {
		v.fail, v.failIdx, v.failErr = class, idx, err
	}
}

// VerifyMulti checks that proof authenticates every answer under root, in
// one recursive pass over the preorder. Each answer is hashed once and
// routed down by its key's crit bits, the way ProveMulti routes keys;
// crit bits must strictly increase root-to-leaf (the invariant that stops
// subtree splicing, as in VerifyProof), and an answer that enters a
// pruned subtree fails — the proof does not cover that key. At a leaf,
// Found answers bind their key/value hashes (a requested-key leaf takes
// exactly one binding; an explicit leaf must hold exactly that binding)
// and absent answers must find a different key there. Subtree digests
// come back bottom-up, each materialized node hashed exactly once, and
// the top one is compared against the certified root. Up to routeStack
// answers are routed in a stack array, so verification allocates
// nothing on the success path.
func VerifyMulti(root Digest, answers []KeyAnswer, proof MultiProof) error {
	if len(proof.Nodes) == 0 {
		// Only the empty tree is proven by an empty proof.
		if root != EmptyRoot {
			return fmt.Errorf("%w: empty multi-proof for non-empty root", ErrProofShape)
		}
		for _, a := range answers {
			if a.Found {
				return fmt.Errorf("%w: membership of %q claimed in empty tree", ErrBadProof, a.Key)
			}
		}
		return nil
	}
	var buf [routeStack]route
	rs := buf[:0]
	if len(answers) > routeStack {
		rs = make([]route, 0, len(answers))
	}
	for i := range answers {
		a := &answers[i]
		r := route{kh: HashKey(a.Key), idx: i, found: a.Found}
		if a.Found {
			r.vh = HashValue(a.Value)
		}
		rs = append(rs, r)
	}
	v := multiVerifier{nodes: proof.Nodes, answers: answers}
	h, err := v.subtree(0, rs)
	if err != nil {
		return err
	}
	if v.pos != len(v.nodes) {
		return fmt.Errorf("%w: %d trailing nodes", ErrProofShape, len(v.nodes)-v.pos)
	}
	if v.fail != 0 {
		return v.failErr
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// subtree consumes one subtree of the preorder, reached by rs, and
// returns its digest. A malformed flattening returns at once; every other
// failure is recorded and the walk goes on, so a later shape error still
// takes precedence.
func (v *multiVerifier) subtree(minBit int16, rs []route) (Digest, error) {
	if v.pos == len(v.nodes) {
		return Digest{}, fmt.Errorf("%w: truncated multi-proof", ErrProofShape)
	}
	nd := &v.nodes[v.pos]
	v.pos++
	switch nd.Kind {
	case MultiLeafRef:
		return v.refLeaf(rs), nil
	case MultiLeafOther:
		return v.otherLeaf(nd, rs), nil
	case MultiInner, MultiPrunedLeft, MultiPrunedRight:
	default:
		return Digest{}, fmt.Errorf("%w: unknown node kind %d", ErrProofShape, nd.Kind)
	}
	if nd.Bit < minBit || nd.Bit >= numBits {
		return Digest{}, fmt.Errorf("%w: crit bit %d out of order", ErrProofShape, nd.Bit)
	}
	bit := nd.Bit
	z := partitionRoutes(rs, bit)
	var l, r Digest
	var err error
	switch nd.Kind {
	case MultiInner:
		if l, err = v.subtree(bit+1, rs[:z]); err != nil {
			return Digest{}, err
		}
		if r, err = v.subtree(bit+1, rs[z:]); err != nil {
			return Digest{}, err
		}
	case MultiPrunedLeft:
		v.pruned(rs[:z])
		l = nd.Sibling
		if r, err = v.subtree(bit+1, rs[z:]); err != nil {
			return Digest{}, err
		}
	case MultiPrunedRight:
		v.pruned(rs[z:])
		r = nd.Sibling
		if l, err = v.subtree(bit+1, rs[:z]); err != nil {
			return Digest{}, err
		}
	}
	if v.fail != 0 {
		return Digest{}, nil
	}
	return innerHash(bit, l, r), nil
}

// partitionRoutes is partitionBit for routes.
func partitionRoutes(rs []route, bit int16) int {
	i, j := 0, len(rs)
	for i < j {
		if bitAt(rs[i].kh, int(bit)) == 0 {
			i++
			continue
		}
		j--
		rs[i], rs[j] = rs[j], rs[i]
	}
	return i
}

// pruned fails every answer whose path enters a pruned subtree.
func (v *multiVerifier) pruned(rs []route) {
	for i := range rs {
		class := failAbsent
		if rs[i].found {
			class = failFound
		}
		v.record(class, rs[i].idx, fmt.Errorf("%w: path for key %q pruned from proof", ErrBadProof, v.answers[rs[i].idx].Key))
	}
}

// refLeaf resolves a requested-key leaf from the answers reaching it: the
// Found ones must agree on one binding, and the absent ones must name a
// different key than that binding.
func (v *multiVerifier) refLeaf(rs []route) Digest {
	var kh, vh Digest
	bound := false
	for i := range rs {
		if !rs[i].found {
			continue
		}
		if bound && (rs[i].kh != kh || rs[i].vh != vh) {
			v.record(failFound, rs[i].idx, fmt.Errorf("%w: one leaf claimed for two bindings", ErrBadProof))
			continue
		}
		kh, vh, bound = rs[i].kh, rs[i].vh, true
	}
	for i := range rs {
		if rs[i].found {
			continue
		}
		key := v.answers[rs[i].idx].Key
		switch {
		case !bound:
			// An unresolved ref leaf has no hashes to fold; the server
			// must ship absence terminals as MultiLeafOther.
			v.record(failAbsent, rs[i].idx, fmt.Errorf("%w: absence of %q rests on an unresolved leaf", ErrProofShape, key))
		case rs[i].kh == kh:
			v.record(failAbsent, rs[i].idx, fmt.Errorf("%w: terminal leaf holds %q itself", ErrBadProof, key))
		}
	}
	if !bound {
		// Shape error, not a hash mismatch: the server shipped a leaf it
		// claimed was a requested key's, but no served answer resolves it.
		v.record(failUnresolved, 0, fmt.Errorf("%w: unresolved leaf in multi-proof", ErrProofShape))
	}
	if v.fail != 0 {
		return Digest{}
	}
	return leafHash(kh, vh)
}

// otherLeaf checks the answers reaching a leaf shipped with explicit
// hashes: it proves membership only of exactly its own binding, and
// absence of every other key.
func (v *multiVerifier) otherLeaf(nd *MultiNode, rs []route) Digest {
	for i := range rs {
		key := v.answers[rs[i].idx].Key
		switch {
		case rs[i].found && (rs[i].kh != nd.KeyHash || rs[i].vh != nd.ValHash):
			v.record(failFound, rs[i].idx, fmt.Errorf("%w: leaf does not bind %q to the served value", ErrBadProof, key))
		case !rs[i].found && rs[i].kh == nd.KeyHash:
			v.record(failAbsent, rs[i].idx, fmt.Errorf("%w: terminal leaf holds %q itself", ErrBadProof, key))
		}
	}
	if v.fail != 0 {
		return Digest{}
	}
	return leafHash(nd.KeyHash, nd.ValHash)
}
