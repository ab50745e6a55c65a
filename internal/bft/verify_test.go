package bft

import (
	"testing"
	"time"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// TestSigVerifiesPerDeliveredBatch pins the cost of consensus
// authentication on a healthy stop-and-wait cluster at n=4: a replica
// trusts its own votes and verifies peer votes only while completing a
// 2f+1 quorum, so each delivered batch costs the leader 2 prepares + 2
// commits and each follower those plus the leader's PrePrepare.
func TestSigVerifiesPerDeliveredBatch(t *testing.T) {
	tc := newTestCluster(t, 1)
	const batches = 6
	prev := protocol.Digest{}
	for i := int64(1); i <= batches; i++ {
		b := testBatch(i, prev)
		if err := tc.propose(b); err != nil {
			t.Fatal(err)
		}
		if !tc.waitDelivered(int(i), []int32{0}, 5*time.Second) {
			t.Fatalf("batch %d not delivered at leader", i)
		}
		prev = b.Digest()
	}
	if !tc.waitDelivered(batches, allReplicas(4), 5*time.Second) {
		t.Fatal("followers did not deliver all batches")
	}
	for i, r := range tc.replicas {
		want := int64(5 * batches)
		if i == 0 {
			want = 4 * batches
		}
		if got := r.SigVerifies(); got != want {
			t.Errorf("replica %d: %d signature verifications for %d batches, want %d", i, got, batches, want)
		}
	}
}

// TestCorruptPrepareSigDoesNotStall: a follower whose prepares carry
// garbage signatures cannot stop the three honest replicas from
// delivering, and no honest replica ever holds its prepare as verified.
// The cluster is pumped from the test goroutine so the invariant can be
// checked after every single message.
func TestCorruptPrepareSigDoesNotStall(t *testing.T) {
	c := newVCCluster(t)
	c.reps[3].cfg.Behavior.CorruptPrepareSig = true
	honest := []int{0, 1, 2}

	prev := c.reps[0].LastDigest()
	const batches = 4
	for id := int64(1); id <= batches; id++ {
		b := &protocol.Batch{Cluster: 0, ID: id, PrevDigest: prev, Timestamp: id,
			CD: protocol.NewCDVector(1), LCE: -1}
		if err := c.reps[0].Propose(b); err != nil {
			t.Fatalf("propose %d: %v", id, err)
		}
		prev = b.Digest()
	}

	pump := func(live []int, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for quiet := 0; !done() && quiet < 50; {
			if time.Now().After(deadline) {
				t.Fatalf("honest replicas stalled: delivered %v", c.delivered)
			}
			moved := false
			for _, i := range live {
				select {
				case env := <-c.inbox[i]:
					c.reps[i].Handle(env.From, env.Payload)
					moved = true
				default:
					continue
				}
				for _, h := range honest {
					for id, in := range c.reps[h].instances {
						if pv, ok := in.prepares[3]; ok && pv.verified {
							t.Fatalf("replica %d holds replica 3's corrupt prepare for slot %d as verified", h, id)
						}
					}
				}
			}
			if moved {
				quiet = 0
			} else {
				quiet++
				time.Sleep(200 * time.Microsecond)
			}
		}
	}

	// With replica 2 paused, replicas 0 and 1 see only each other's and
	// replica 3's prepares: every slot's first 2f+1 includes the corrupt
	// one, which must be counted, fail, and be dropped.
	pump([]int{0, 1, 3}, func() bool { return false })
	for _, h := range []int{0, 1} {
		if len(c.delivered[h]) != 0 {
			t.Fatalf("replica %d delivered on a quorum that includes a corrupt prepare", h)
		}
		for id, in := range c.reps[h].instances {
			if _, ok := in.prepares[3]; ok {
				t.Fatalf("replica %d kept replica 3's corrupt prepare for slot %d", h, id)
			}
		}
	}

	// Replica 2's prepares complete every slot.
	pump([]int{0, 1, 2, 3}, func() bool { return deliveredAll(c, honest, batches) })
	for _, h := range honest {
		if got := c.delivered[h]; len(got) != batches || got[batches-1] != batches {
			t.Fatalf("replica %d delivered %v", h, got)
		}
	}
}

func deliveredAll(c *vcCluster, replicas []int, n int) bool {
	for _, i := range replicas {
		if len(c.delivered[i]) < n {
			return false
		}
	}
	return true
}

// voteFixture drives follower replica 1 of soloReplica by hand: it
// validates slot 1 from the leader, and signs votes as any replica.
type voteFixture struct {
	t         *testing.T
	r         *Replica
	keys      []cryptoutil.KeyPair
	b         *protocol.Batch
	d         protocol.Digest
	delivered []protocol.CertifiedBatch
}

func newVoteFixture(t *testing.T) *voteFixture {
	t.Helper()
	r, keys := soloReplica(t, 1)
	fx := &voteFixture{t: t, r: r, keys: keys}
	r.cfg.Deliver = func(cb protocol.CertifiedBatch) { fx.delivered = append(fx.delivered, cb) }
	fx.b = (&protocol.Batch{Cluster: 0, ID: 1, CD: protocol.NewCDVector(1), LCE: -1}).Seal()
	fx.d = fx.b.Digest()
	return fx
}

func (fx *voteFixture) prePrepare() {
	fx.r.Handle(NodeID{Cluster: 0, Replica: 0}, leaderPrePrepare(fx.keys, fx.b))
	if in := fx.r.instances[1]; in == nil || !in.validated {
		fx.t.Fatal("slot 1 not validated")
	}
}

// prepare delivers a Prepare for slot 1 in view 0 claiming to come from
// rep; a valid one is signed with rep's key, an invalid one is zeroed.
func (fx *voteFixture) prepare(rep int32, view uint64, valid bool) {
	sig := make([]byte, 64)
	if valid {
		psd := protocol.PrepareSigDigest(0, view, 1, fx.d)
		sig = fx.keys[rep].Sign(psd[:])
	}
	fx.r.Handle(NodeID{Cluster: 0, Replica: rep}, &Prepare{View: view, ID: 1, Digest: fx.d, Sig: sig})
}

func (fx *voteFixture) commit(rep int32, valid bool) {
	sig := make([]byte, 64)
	if valid {
		sig = fx.keys[rep].Sign(fx.d[:])
	}
	fx.r.Handle(NodeID{Cluster: 0, Replica: rep}, &Commit{ID: 1, Digest: fx.d, CertSig: sig})
}

func (fx *voteFixture) committed() bool { return fx.r.instances[1].committed }

// relayed returns the replicas whose prepares this replica's view-change
// vote would carry for slot 1.
func (fx *voteFixture) relayed() []int32 {
	vc := fx.r.buildViewChange(1)
	if len(vc.Entries) != 1 {
		fx.t.Fatalf("view-change vote carries %d entries, want 1", len(vc.Entries))
	}
	var reps []int32
	for _, p := range vc.Entries[0].Prepares {
		reps = append(reps, p.Replica)
	}
	return reps
}

func sameReplicas(got []int32, want ...int32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestInvalidVoteInQuorumWaitsForNext: when the first 2f+1 stored votes
// include one with a bad signature, that vote is dropped and the slot
// advances the moment the next honest vote arrives — for prepares and
// commits alike. A corrupt prepare is never relayed in a view-change vote,
// whether or not it was counted.
func TestInvalidVoteInQuorumWaitsForNext(t *testing.T) {
	fx := newVoteFixture(t)
	fx.prePrepare()

	fx.prepare(3, 0, false)
	if got := fx.relayed(); !sameReplicas(got, 1) {
		t.Fatalf("uncounted corrupt prepare relayed: view-change prepares from %v, want [1]", got)
	}
	fx.prepare(3, 0, false) // stored again after buildViewChange dropped it
	fx.prepare(0, 0, true)  // own + 0 + 3: a quorum only if 3 counts
	if fx.committed() {
		t.Fatal("committed on a quorum that includes a corrupt prepare")
	}
	if _, ok := fx.r.instances[1].prepares[3]; ok {
		t.Fatal("corrupt prepare kept after failing verification")
	}
	if got := fx.relayed(); !sameReplicas(got, 0, 1) {
		t.Fatalf("view-change prepares from %v, want [0 1]", got)
	}
	fx.prepare(2, 0, true)
	if !fx.committed() {
		t.Fatal("did not commit when the next honest prepare arrived")
	}

	fx.commit(3, false)
	fx.commit(0, true) // own + 0 + 3: a quorum only if 3 counts
	if len(fx.delivered) != 0 {
		t.Fatal("delivered on a quorum that includes a corrupt commit")
	}
	fx.commit(2, true)
	if len(fx.delivered) != 1 {
		t.Fatal("did not deliver when the next honest commit arrived")
	}
	cb := fx.delivered[0]
	if err := cryptoutil.VerifyCertificate(fx.r.cfg.Ring, cb.Cert, fx.d[:], 2); err != nil {
		t.Fatalf("certificate invalid: %v", err)
	}
	for _, s := range cb.Cert.Signatures {
		if s.Signer.Replica == 3 {
			t.Fatal("corrupt commit signature in the certificate")
		}
	}
}

// TestForgedSelfVotesRejected: the transport does not authenticate
// senders, so a vote that claims to come from the receiver itself is
// checked like any other. It cannot displace the replica's own prepare,
// cannot stand in for its missing commit, and a forged PrePrepare in the
// leader's own name is verified and refused.
func TestForgedSelfVotesRejected(t *testing.T) {
	fx := newVoteFixture(t)
	fx.prePrepare()
	own := fx.r.instances[1].prepares[1]

	fx.prepare(1, 0, false) // same view as the own vote
	fx.prepare(1, 5, false) // a newer view would displace it if unchecked
	if got := fx.r.instances[1].prepares[1]; got.view != own.view || !got.verified {
		t.Fatalf("forged self prepare displaced the replica's own vote: %+v", got)
	}

	fx.prepare(0, 0, true)
	fx.commit(0, true)
	fx.commit(2, true)
	fx.commit(1, false) // 0 + 2 + forged self: a quorum only if it counts
	if len(fx.delivered) != 0 {
		t.Fatal("delivered on a forged commit in the receiver's own name")
	}
	fx.prepare(2, 0, true) // the real commit
	if len(fx.delivered) != 1 {
		t.Fatal("did not deliver once the replica's own commit was cast")
	}
	cb := fx.delivered[0]
	if err := cryptoutil.VerifyCertificate(fx.r.cfg.Ring, cb.Cert, fx.d[:], 2); err != nil {
		t.Fatalf("certificate invalid: %v", err)
	}

	// The leader skips verification only for the message it signed itself.
	ring := cryptoutil.NewKeyRing()
	self := NodeID{Cluster: 0, Replica: 0}
	kp := cryptoutil.DeriveKeyPair(self, 3)
	ring.Add(self, kp.Public)
	leader := New(Config{Cluster: 0, Replica: 0, N: 4, F: 1, Keys: kp, Ring: ring, Net: transport.NewNetwork()})
	b := testBatch(1, protocol.Digest{}).Seal()
	leader.Handle(self, &PrePrepare{Batch: b, LeaderSig: make([]byte, 64)})
	if len(leader.instances) != 0 || len(leader.proposedDigest) != 0 {
		t.Fatal("forged PrePrepare in the leader's own name was accepted")
	}
	if got := leader.SigVerifies(); got != 1 {
		t.Fatalf("forged self PrePrepare: %d verifications, want 1", got)
	}
}

// TestForgedVoteCannotShadowHonestVote: a forgery in a peer's name that
// arrives before the peer's real vote is checked when the real one comes,
// fails, and gives way, so the real vote still counts.
func TestForgedVoteCannotShadowHonestVote(t *testing.T) {
	fx := newVoteFixture(t)
	fx.prePrepare()

	fx.prepare(2, 0, false)
	fx.prepare(2, 0, true)
	fx.prepare(0, 0, true)
	if !fx.committed() {
		t.Fatal("forged prepare shadowed replica 2's real one")
	}

	fx.commit(2, false)
	fx.commit(2, true)
	fx.commit(0, true)
	if len(fx.delivered) != 1 {
		t.Fatal("forged commit shadowed replica 2's real one")
	}
}
