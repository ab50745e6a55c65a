package merkle

import "fmt"

// This file keeps the multi-proof prover and verifier that ProveMulti's
// in-place partition and VerifyMulti's one-pass walk replaced, as test
// oracles. The reference verifier parses the flattened proof into a
// pointer tree, walks every answer down it, and folds the resolved tree
// into a root. FuzzVerifyMultiAgainstReference requires both verifiers to
// agree on every verdict and error class, and both provers to emit the
// same nodes.

// mpNode is the parsed form of a MultiProof during verification.
type mpNode struct {
	bit         int16
	pruned      bool
	leaf        bool
	ref         bool // leaf bound to a requested key; hashes resolved from answers
	assigned    bool
	hash        Digest
	keyHash     Digest
	valHash     Digest
	left, right *mpNode
}

// verifyMultiRef checks that proof authenticates every answer under root.
// Structure first: the flattened nodes must parse to exactly one tree with
// strictly increasing crit-bit indices root-to-leaf (the invariant that
// stops subtree splicing, as in VerifyProof). Then each answer walks the
// parsed tree by its key's bits; entering a pruned subtree is a
// verification failure (the proof does not cover that key). Found answers
// bind their key/value hashes to the leaf they land on; absent answers
// must land on a leaf holding a different key. Finally the pruned tree is
// folded bottom-up — each materialized node hashed exactly once — and
// compared against the certified root.
func verifyMultiRef(root Digest, answers []KeyAnswer, proof MultiProof) error {
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
	top, rest, err := parseMulti(proof.Nodes, 0)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing nodes", ErrProofShape, len(rest))
	}
	// Resolve leaves from the answers: Found answers assign hashes to the
	// ref leaves they land on; absent answers are checked afterwards so a
	// later assignment cannot retroactively invalidate them.
	for _, a := range answers {
		if !a.Found {
			continue
		}
		kh := HashKey(a.Key)
		leaf := walkMulti(top, kh)
		if leaf == nil {
			return fmt.Errorf("%w: path for key %q pruned from proof", ErrBadProof, a.Key)
		}
		vh := HashValue(a.Value)
		if !leaf.ref {
			// A leaf shipped with explicit hashes can still prove
			// membership — but only of exactly this binding.
			if leaf.keyHash != kh || leaf.valHash != vh {
				return fmt.Errorf("%w: leaf does not bind %q to the served value", ErrBadProof, a.Key)
			}
			continue
		}
		if leaf.assigned && (leaf.keyHash != kh || leaf.valHash != vh) {
			return fmt.Errorf("%w: one leaf claimed for two bindings", ErrBadProof)
		}
		leaf.assigned = true
		leaf.keyHash, leaf.valHash = kh, vh
	}
	for _, a := range answers {
		if a.Found {
			continue
		}
		kh := HashKey(a.Key)
		leaf := walkMulti(top, kh)
		if leaf == nil {
			return fmt.Errorf("%w: path for key %q pruned from proof", ErrBadProof, a.Key)
		}
		if leaf.ref && !leaf.assigned {
			// An unresolved ref leaf has no hashes to fold; the server
			// must ship absence terminals as MultiLeafOther.
			return fmt.Errorf("%w: absence of %q rests on an unresolved leaf", ErrProofShape, a.Key)
		}
		if leaf.keyHash == kh {
			return fmt.Errorf("%w: terminal leaf holds %q itself", ErrBadProof, a.Key)
		}
	}
	h, err := foldMulti(top)
	if err != nil {
		return err
	}
	if h != root {
		return ErrBadProof
	}
	return nil
}

// parseMulti consumes one subtree from the flattened preorder, enforcing
// kind validity and strictly increasing crit-bit indices (minBit). It
// returns the parsed subtree and the unconsumed tail.
func parseMulti(nodes []MultiNode, minBit int16) (*mpNode, []MultiNode, error) {
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("%w: truncated multi-proof", ErrProofShape)
	}
	nd := nodes[0]
	rest := nodes[1:]
	switch nd.Kind {
	case MultiLeafRef:
		return &mpNode{bit: -1, leaf: true, ref: true}, rest, nil
	case MultiLeafOther:
		return &mpNode{bit: -1, leaf: true, keyHash: nd.KeyHash, valHash: nd.ValHash}, rest, nil
	case MultiInner, MultiPrunedLeft, MultiPrunedRight:
		if nd.Bit < minBit || nd.Bit >= numBits {
			return nil, nil, fmt.Errorf("%w: crit bit %d out of order", ErrProofShape, nd.Bit)
		}
		n := &mpNode{bit: nd.Bit}
		var err error
		switch nd.Kind {
		case MultiInner:
			if n.left, rest, err = parseMulti(rest, nd.Bit+1); err != nil {
				return nil, nil, err
			}
			if n.right, rest, err = parseMulti(rest, nd.Bit+1); err != nil {
				return nil, nil, err
			}
		case MultiPrunedLeft:
			n.left = &mpNode{bit: -1, pruned: true, hash: nd.Sibling}
			if n.right, rest, err = parseMulti(rest, nd.Bit+1); err != nil {
				return nil, nil, err
			}
		case MultiPrunedRight:
			n.right = &mpNode{bit: -1, pruned: true, hash: nd.Sibling}
			if n.left, rest, err = parseMulti(rest, nd.Bit+1); err != nil {
				return nil, nil, err
			}
		}
		return n, rest, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown node kind %d", ErrProofShape, nd.Kind)
	}
}

// walkMulti descends by the key hash's bits to the terminal node, or nil
// when the path enters a pruned subtree.
func walkMulti(n *mpNode, kh Digest) *mpNode {
	for !n.leaf {
		if n.pruned {
			return nil
		}
		if bitAt(kh, int(n.bit)) == 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// foldMulti computes the subtree hash bottom-up; every materialized node
// is hashed exactly once (via leafHash/innerHash, so HashOps counts the
// verification work).
func foldMulti(n *mpNode) (Digest, error) {
	if n.pruned {
		return n.hash, nil
	}
	if n.leaf {
		if n.ref && !n.assigned {
			// Shape error, not a hash mismatch: the server shipped a leaf
			// it claimed was a requested key's, but no served answer
			// resolves it.
			return Digest{}, fmt.Errorf("%w: unresolved leaf in multi-proof", ErrProofShape)
		}
		return leafHash(n.keyHash, n.valHash), nil
	}
	l, err := foldMulti(n.left)
	if err != nil {
		return Digest{}, err
	}
	r, err := foldMulti(n.right)
	if err != nil {
		return Digest{}, err
	}
	return innerHash(n.bit, l, r), nil
}

// proveMultiRef is the map-and-append prover ProveMulti replaced: it
// dedups keys through a map and allocates two partition slices per
// level. ProveMulti must emit exactly its nodes.
func (t *Tree) proveMultiRef(keys [][]byte) (MultiProof, error) {
	if len(keys) == 0 {
		return MultiProof{}, ErrNoKeys
	}
	if t.root == nil {
		return MultiProof{}, nil
	}
	khs := make([]Digest, 0, len(keys))
	requested := make(map[Digest]bool, len(keys))
	for _, k := range keys {
		kh := HashKey(k)
		if !requested[kh] {
			requested[kh] = true
			khs = append(khs, kh)
		}
	}
	nodes := make([]MultiNode, 0, 2*len(khs))
	var rec func(n *node, reach []Digest)
	rec = func(n *node, reach []Digest) {
		if n.bit < 0 {
			if requested[n.keyHash] {
				nodes = append(nodes, MultiNode{Kind: MultiLeafRef})
			} else {
				nodes = append(nodes, MultiNode{Kind: MultiLeafOther, KeyHash: n.keyHash, ValHash: n.valHash})
			}
			return
		}
		// Partition the reaching keys by this node's crit bit. Unlike
		// ApplyBulk's splitAt, absent keys routed through the node need
		// not share the subtree's prefix, so partition by the bit itself.
		var zeros, ones []Digest
		for _, kh := range reach {
			if bitAt(kh, int(n.bit)) == 0 {
				zeros = append(zeros, kh)
			} else {
				ones = append(ones, kh)
			}
		}
		switch {
		case len(ones) == 0:
			nodes = append(nodes, MultiNode{Kind: MultiPrunedRight, Bit: n.bit, Sibling: n.right.hash})
			rec(n.left, zeros)
		case len(zeros) == 0:
			nodes = append(nodes, MultiNode{Kind: MultiPrunedLeft, Bit: n.bit, Sibling: n.left.hash})
			rec(n.right, ones)
		default:
			nodes = append(nodes, MultiNode{Kind: MultiInner, Bit: n.bit})
			rec(n.left, zeros)
			rec(n.right, ones)
		}
	}
	rec(t.root, khs)
	return MultiProof{Nodes: nodes}, nil
}
