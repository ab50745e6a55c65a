package protocol

import (
	"encoding/hex"
	"fmt"
	"testing"

	"transedge/internal/cryptoutil"
	"transedge/internal/merkle"
)

// TestEncodeMultiProofKnownAnswer pins one multi-proof's wire bytes: a
// membership and an absence over a fixed five-key tree. A change to the
// prover's node order, the node kinds it picks or the codec fails here.
func TestEncodeMultiProofKnownAnswer(t *testing.T) {
	tr := merkle.New()
	for i, k := range []string{"alpha", "bravo", "charlie", "delta", "echo"} {
		tr = tr.Insert([]byte(k), merkle.HashValue([]byte(fmt.Sprint(i+1))))
	}
	mp, err := tr.ProveMulti([][]byte{[]byte("zulu"), []byte("alpha")})
	if err != nil {
		t.Fatal(err)
	}
	const want = "010200af6b2d4c27ce818ede8724f72bd62387fd975405b36b05f71c4cc4854577" +
		"0535010103023168712b16676f9eeee0ddca38dc5bada6c23219d317978a68a391bf" +
		"1163fd640405f144a6907dc4284d1f9fe6a7d9b9ff53c02c1d07ba68f24d413d7ff7" +
		"f757a782d4735e3a265e16eee03f59718b9b5d03019c07d8b6c51f90da3a666eec13ab35"
	if got := hex.EncodeToString(EncodeMultiProof(&mp)); got != want {
		t.Fatalf("EncodeMultiProof =\n%s\nwant\n%s", got, want)
	}
}

// TestDurableCheckpointKnownAnswer pins the checkpoint-file payload of a
// fixed checkpoint (by digest and length) and checks the encoder sizes
// its buffer exactly.
func TestDurableCheckpointKnownAnswer(t *testing.T) {
	b := testBatch().Seal()
	sig := func(r int32, fill byte) cryptoutil.Signature {
		s := make([]byte, 64)
		for i := range s {
			s[i] = fill + byte(i)
		}
		return cryptoutil.Signature{Signer: cryptoutil.NodeID{Cluster: b.Cluster, Replica: r}, Sig: s}
	}
	c := &DurableCheckpoint{
		Cluster:      b.Cluster,
		CheckpointID: b.ID,
		View:         3,
		Header:       b.Header(),
		HeaderCert:   cryptoutil.Certificate{Cluster: b.Cluster, Signatures: []cryptoutil.Signature{sig(0, 1), sig(2, 7)}},
		Cert:         cryptoutil.Certificate{Cluster: b.Cluster, Signatures: []cryptoutil.Signature{sig(1, 3)}},
		Entries: []SnapshotEntry{
			{Key: "a", Value: []byte("1"), Writer: 10},
			{Key: "b", Value: nil, Writer: 12},
		},
		Groups: []CheckpointGroup{{
			PrepareBatch: 39,
			Recs:         b.Prepared,
		}},
	}
	buf := EncodeDurableCheckpoint(c)
	if len(buf) != cap(buf) {
		t.Errorf("payload buffer has %d bytes of slack", cap(buf)-len(buf))
	}
	d := cryptoutil.Hash(buf)
	if got, want := fmt.Sprintf("%d %x", len(buf), d), "646 5c6231e86f39cd5d2b1d68066fbdb035156652ee5195da9ce2294d1c3abf0fd1"; got != want {
		t.Fatalf("checkpoint payload = %s, want %s", got, want)
	}
	// A reserved prefix is kept and the payload follows it unchanged.
	framed := AppendDurableCheckpoint([]byte{0xde, 0xad, 0xbe, 0xef}, c)
	if string(framed[:4]) != "\xde\xad\xbe\xef" || string(framed[4:]) != string(buf) {
		t.Fatal("AppendDurableCheckpoint does not append the payload behind the prefix")
	}
}

// TestHeaderDigestAllocationFree: the batch digest is the hash of the
// canonical header encoding, built without a heap allocation.
func TestHeaderDigestAllocationFree(t *testing.T) {
	h := testBatch().Seal().Header()
	if h.Digest() != cryptoutil.Hash(h.Encode()) {
		t.Fatal("Digest is not the hash of Encode")
	}
	if n := testing.AllocsPerRun(100, func() { h.Digest() }); n != 0 {
		t.Fatalf("Digest: %v allocs", n)
	}
}

// TestMultiProofSizeMatchesEncoding: MultiProofSize, which the client
// uses to account proof bytes, is exactly the encoded length.
func TestMultiProofSizeMatchesEncoding(t *testing.T) {
	tr, keys, _ := proofTestTree(300, 5)
	for n := 1; n <= len(keys); n += 37 {
		query := append(keys[:n:n], []byte(fmt.Sprintf("absent-%d", n)))
		mp, err := tr.ProveMulti(query)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := MultiProofSize(&mp), len(EncodeMultiProof(&mp)); got != want {
			t.Fatalf("%d keys: MultiProofSize %d, encoding %d bytes", n+1, got, want)
		}
	}
	if got := MultiProofSize(&merkle.MultiProof{}); got != len(EncodeMultiProof(&merkle.MultiProof{})) {
		t.Fatalf("empty proof: MultiProofSize %d", got)
	}
}
