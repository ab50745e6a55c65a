// Package bft implements the intra-cluster BFT state-machine replication
// service that TransEdge layers its batches on (the paper uses
// BFT-SMaRt [13]; this is an equivalent PBFT-style SMR substrate).
//
// Each cluster of n = 3f+1 replicas orders batches in sequence-numbered
// slots. A leader may keep up to MaxInFlight proposals outstanding
// between Propose and delivery (MaxInFlight = 1 reproduces the paper's
// "a leader writes a batch only if the previous batch is already
// written"); delivery is always in strict slot order, so the application
// observes the same one-batch-at-a-time log either way. The flow per
// batch is:
//
//	leader        --PrePrepare(batch)-->  all replicas
//	each replica  --Prepare(digest)--->   other replicas (after validating)
//	each replica  --Commit(digest,sig)->  other replicas (after 2f+1 Prepares)
//	deliver when 2f+1 valid Commits are held
//
// A replica records its own Prepare and Commit locally as it signs them,
// and the leader trusts the PrePrepare it signed itself; every other
// message is verified — including one whose sender claims to be the
// receiver, since the transport does not authenticate senders. Peer
// votes are stored unverified and their signatures checked only when
// they are counted: the moment the stored votes would complete a 2f+1
// quorum, in replica order, until 2f+1 verified votes are held. A vote
// that arrives after its quorum is never verified, a vote that fails is
// dropped, and unverified votes are never relayed as evidence.
//
// The Commit message carries the replica's signature over the batch-header
// digest; any 2f+1 commit quorum therefore contains at least f+1 honest
// signatures, which the deliverer assembles into the batch certificate
// that read-only clients later verify. Replicas validate batch *content*
// (conflict rules, Merkle root recomputation) through an application
// callback before voting, so a malicious leader cannot get an inconsistent
// batch certified — the safety property the paper relies on in Sec. 3.2.
//
// Leader replacement follows PBFT's view-change protocol (the paper
// inherits this behavior from BFT-SMaRt): views number the leadership
// epochs, the leader of view v is replica v mod n, and when the enclosing
// node's progress timer suspects the leader it calls SuspectLeader to
// vote the cluster into the next view. The vote carries the replica's
// certified tip and its prepared-but-undelivered frontier; 2f+1 votes
// form a NewView certificate from which every replica independently
// recomputes the slots that must be re-proposed — see viewchange.go and
// DESIGN.md §7 for the machinery and the safety argument.
//
// The Replica type is passive: it owns no goroutine and no timer. The
// enclosing node's event loop feeds it messages via Handle and drives
// suspicion from its own tick, keeping each replica single-threaded and
// deterministic.
package bft

import (
	"errors"
	"fmt"
	"sync/atomic"

	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// NodeID aliases the system-wide node identity.
type NodeID = cryptoutil.NodeID

// Behavior configures fault injection for byzantine testing.
type Behavior struct {
	// Silent drops all outbound consensus messages (crash/byzantine-mute).
	Silent bool
	// Equivocate makes a byzantine leader send a different batch to every
	// replica.
	Equivocate bool
	// CorruptCertSig makes the replica emit garbage certificate
	// signatures in its Commit messages.
	CorruptCertSig bool
	// CorruptPrepareSig makes the replica emit garbage signatures in its
	// Prepare messages.
	CorruptPrepareSig bool
	// TamperBatch makes a byzantine leader flip a committed decision in
	// the proposed batch after computing honest segments elsewhere; used
	// to show content validation rejects it.
	TamperBatch func(*protocol.Batch)
}

// Config assembles a replica of one cluster's SMR service.
type Config struct {
	Cluster  int32
	Replica  int32
	N        int // cluster size, 3f+1
	F        int // tolerated byzantine faults
	Keys     cryptoutil.KeyPair
	Ring     *cryptoutil.KeyRing
	Net      *transport.Network
	Behavior Behavior
	// GenesisDigest chains the first proposed batch to the trusted
	// genesis batch (the initial data load).
	GenesisDigest protocol.Digest
	// GenesisHeader and GenesisCert seed the certified tip carried in
	// view-change votes before anything has been delivered. Optional when
	// view changes are never triggered (pure unit-test configs).
	GenesisHeader protocol.BatchHeader
	GenesisCert   cryptoutil.Certificate

	// Rebase, when set, is invoked after a new view is installed, before
	// the re-proposed frontier enters consensus: the enclosing node drops
	// or re-bases its speculative pipeline onto the frontier batches and
	// re-routes client traffic to the new leader.
	Rebase func(view uint64, frontier []*protocol.Batch)

	// MaxInFlight bounds how many proposals the leader may have between
	// Propose and delivery. Values <= 1 give the classic stop-and-wait
	// pipeline; larger values let the leader chain speculative batches
	// while predecessors are still in consensus.
	MaxInFlight int

	// BufferAhead bounds how far beyond nextDeliver a message's sequence
	// number may run before it is dropped instead of buffered (0 selects
	// 2*MaxInFlight+2; negative disables the bound entirely). The
	// enclosing node disables it when checkpointing is off — without
	// state transfer, dropped messages could never be recovered, so
	// unbounded buffering is the only way a slow replica catches up.
	BufferAhead int

	// Validate inspects a proposed batch before the replica votes for it.
	// It runs exactly once per batch ID, in log order, but ahead of
	// delivery: slot k+1 is validated as soon as slot k has been
	// validated, so the consensus phases of pipelined slots overlap.
	// Returning an error withholds the replica's Prepare vote.
	Validate func(*protocol.Batch) error
	// Deliver receives certified batches in strict log order.
	Deliver func(protocol.CertifiedBatch)
}

// Message types exchanged within a cluster.

// PrePrepare is the leader's proposal of the next batch in its view.
type PrePrepare struct {
	View      uint64
	Batch     *protocol.Batch
	LeaderSig []byte // leader's signature over the batch digest
	// signer is set only on the signing leader's in-memory message: when
	// it comes back through the transport, that replica skips verifying
	// its own signature. A message built anywhere else never carries it,
	// so a forgery claiming to come from the receiver is still verified.
	signer *Replica
}

// Prepare is a replica's vote that it accepts the proposal. Sig signs
// protocol.PrepareSigDigest(cluster, View, ID, Digest). A receiver stores
// it unverified and verifies it exactly when it is counted toward the
// 2f+1 prepare quorum, so any 2f+1 counted prepares are a transferable
// prepare certificate — the evidence view-change votes carry, which never
// includes an unverified prepare.
type Prepare struct {
	View   uint64
	ID     int64
	Digest protocol.Digest
	Sig    []byte
}

// Commit is a replica's second-phase vote; CertSig is its certificate
// signature over the batch-header digest. Like a Prepare it is stored
// unverified and verified exactly when it is counted toward the 2f+1
// delivery quorum, so every signature in an assembled certificate has
// been verified. CertSig deliberately does NOT cover View: a slot
// re-proposed with identical content after a view change assembles its
// delivery certificate from commit votes cast in any view, which is what
// lets delivery straddle a failover.
type Commit struct {
	View    uint64 // informational: the sender's view when it committed
	ID      int64
	Digest  protocol.Digest
	CertSig []byte
}

// vote is one replica's Prepare or Commit for a slot as stored here: the
// view it was cast in, the digest it votes for, and its signature (over
// PrepareSigDigest for a prepare, over the digest for a commit). verified
// records that the signature has been checked: peer votes are stored
// unverified and checked only when counted (see quorum).
type vote struct {
	view     uint64
	digest   protocol.Digest
	sig      []byte
	verified bool
}

// instance tracks one batch's consensus progress.
type instance struct {
	id        int64
	view      uint64 // view this replica validated (or adopted) the slot in
	batch     *protocol.Batch
	digest    protocol.Digest
	validated bool // Validate ran and passed; Prepare sent
	committed bool // Commit sent
	delivered bool
	prepares  map[int32]vote // replica -> newest-view prepare
	// commits holds one commit vote per replica. Before this replica has
	// validated the proposal (message interleaving makes early commits
	// common: peers only need 2f+1 prepares, not ours) any digest is
	// held; validation drops the ones that do not match.
	commits map[int32]vote
}

// Replica is one cluster member's consensus engine.
type Replica struct {
	cfg          Config
	self         NodeID
	peers        []NodeID // every replica of the cluster, self included
	others       []NodeID // peers without self: the targets of our votes
	nextDeliver  int64    // next batch ID to deliver
	nextValidate int64    // next batch ID to validate (runs ahead of delivery)
	nextPropose  int64    // next slot the leader may propose into
	instances    map[int64]*instance
	// pendingPrePrepare buffers proposals that arrived before their turn.
	pendingPrePrepare map[int64]*PrePrepare
	lastDigest        protocol.Digest // digest of last delivered batch
	// lastValidated chains speculative validation: the digest of the
	// newest validated slot, which the next slot's PrevDigest must match.
	lastValidated protocol.Digest

	// View-change state (viewchange.go). view is the current view; while
	// viewActive is false the replica has voted the leader out (or holds a
	// NewView it cannot install yet) and accepts no new proposals.
	view       uint64
	viewActive bool
	// votedFor is the highest view this replica has cast a ViewChange
	// vote for; it never votes the same or a lower view twice.
	votedFor uint64
	// vcVotes holds at most one verified ViewChange vote per replica (its
	// newest), keyed by target view then voter.
	vcVotes map[uint64]map[int32]*protocol.ViewChange
	// lastHeader/lastCert are the certified tip carried in view-change
	// votes: the newest delivered batch header and an f+1 certificate
	// over its digest (genesis until the first delivery).
	lastHeader protocol.BatchHeader
	lastCert   cryptoutil.Certificate
	// pendingNewView is a verified NewView this replica cannot install
	// yet because its delivery point trails the certificate's global tip;
	// retried after every delivery and after state transfer.
	pendingNewView *protocol.NewView
	// currentView mirrors view for cross-thread readers.
	currentView atomic.Uint64
	viewChanges atomic.Int64

	// Equivocation evidence: leader proposals seen per ID.
	proposedDigest map[int64]protocol.Digest
	// highestSeen is the largest sequence number observed in any
	// consensus message (including ones dropped for being beyond the
	// buffering window) — the signal the enclosing node uses to detect
	// that it has fallen behind and must state-transfer.
	highestSeen int64
	// Fault counters are atomic so tests and monitoring can read them
	// while the event loop runs.
	equivocations atomic.Int64
	rejected      atomic.Int64
	droppedAhead  atomic.Int64
	sigVerifies   atomic.Int64
}

// New creates a replica engine. Batch IDs start at 1 (batch 0 is the
// implicit genesis data load).
func New(cfg Config) *Replica {
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 1
	}
	r := &Replica{
		cfg:               cfg,
		self:              NodeID{Cluster: cfg.Cluster, Replica: cfg.Replica},
		nextDeliver:       1,
		nextValidate:      1,
		nextPropose:       1,
		instances:         make(map[int64]*instance),
		pendingPrePrepare: make(map[int64]*PrePrepare),
		proposedDigest:    make(map[int64]protocol.Digest),
		lastDigest:        cfg.GenesisDigest,
		lastValidated:     cfg.GenesisDigest,
		viewActive:        true,
		vcVotes:           make(map[uint64]map[int32]*protocol.ViewChange),
		lastHeader:        cfg.GenesisHeader,
		lastCert:          cfg.GenesisCert,
	}
	for i := 0; i < cfg.N; i++ {
		id := NodeID{Cluster: cfg.Cluster, Replica: int32(i)}
		r.peers = append(r.peers, id)
		if id != r.self {
			r.others = append(r.others, id)
		}
	}
	return r
}

// LeaderReplica is the leader index of view 0 within each cluster (the
// round-robin rotation starts here; see leaderAt).
const LeaderReplica int32 = 0

// leaderAt returns the leader replica index for a view: round-robin over
// the cluster, view 0 led by replica 0.
func (r *Replica) leaderAt(view uint64) int32 {
	return int32(view % uint64(r.cfg.N))
}

// IsLeader reports whether this replica leads its cluster in the current
// view.
func (r *Replica) IsLeader() bool { return r.cfg.Replica == r.leaderAt(r.view) }

// CanPropose reports whether this replica may propose right now: it must
// lead the current view, the view must be active (no view change in
// progress), and no NewView may be pending installation.
func (r *Replica) CanPropose() bool {
	return r.IsLeader() && r.viewActive && r.pendingNewView == nil
}

// LeaderID returns the node identity of the current view's leader, for
// routing client and 2PC traffic.
func (r *Replica) LeaderID() NodeID {
	return NodeID{Cluster: r.cfg.Cluster, Replica: r.leaderAt(r.view)}
}

// CurrentView returns the replica's view. Safe to read from any
// goroutine (tests and monitoring poll it while the event loop runs).
func (r *Replica) CurrentView() uint64 { return r.currentView.Load() }

// ViewActive reports whether the current view is operational (false
// while a view change is in progress).
func (r *Replica) ViewActive() bool { return r.viewActive }

// ViewChanges returns how many new views this replica has installed.
func (r *Replica) ViewChanges() int { return int(r.viewChanges.Load()) }

// PendingWork reports whether the consensus layer has undelivered state
// that only leader progress (or a view change) can resolve — the signal
// the enclosing node's progress timer arms on.
func (r *Replica) PendingWork() bool {
	return !r.viewActive || len(r.instances) > 0 || len(r.pendingPrePrepare) > 0
}

// NextID returns the ID the next proposed batch must carry.
func (r *Replica) NextID() int64 { return r.nextPropose }

// InFlight returns how many proposals are between Propose and delivery.
func (r *Replica) InFlight() int { return int(r.nextPropose - r.nextDeliver) }

// LastDigest returns the digest of the last delivered batch (zero digest
// before any delivery), for chaining PrevDigest.
func (r *Replica) LastDigest() protocol.Digest { return r.lastDigest }

// Equivocations returns how many conflicting leader proposals this replica
// has detected.
func (r *Replica) Equivocations() int { return int(r.equivocations.Load()) }

// Rejected returns how many proposals failed content validation here.
func (r *Replica) Rejected() int { return int(r.rejected.Load()) }

// DroppedAhead returns how many consensus messages were dropped for
// carrying sequence numbers beyond the buffering window.
func (r *Replica) DroppedAhead() int { return int(r.droppedAhead.Load()) }

// SigVerifies returns how many PrePrepare, Prepare, and Commit signatures
// this replica has verified. On a healthy cluster that is 2f peer
// prepares and 2f peer commits per delivered batch, plus the PrePrepare
// on a follower. Checks made while installing a new view (ViewChange
// signatures, tip certificates, frontier evidence) are not counted.
func (r *Replica) SigVerifies() int64 { return r.sigVerifies.Load() }

// HighestSeen returns the largest sequence number observed in any
// consensus message, including dropped ones.
func (r *Replica) HighestSeen() int64 { return r.highestSeen }

// maxAhead is how far beyond nextDeliver a message's sequence number may
// run before it is dropped instead of buffered (-1 = unbounded). An
// honest leader never proposes past its own nextDeliver + MaxInFlight;
// the extra window absorbs the skew between our delivery point and the
// quorum's (plus timer-jitter reordering in the transport). Anything
// further means we lost messages for good — buffering cannot help, only
// state transfer can — so the buffers stay bounded at O(maxAhead)
// instances.
func (r *Replica) maxAhead() int64 {
	if r.cfg.BufferAhead < 0 {
		return -1
	}
	if r.cfg.BufferAhead > 0 {
		return int64(r.cfg.BufferAhead)
	}
	return 2*int64(r.cfg.MaxInFlight) + 2
}

// observe tracks the highest sequence number seen and reports whether
// the message is within the buffering window. Out-of-window messages
// are counted and dropped by the callers. The recorded high-water mark
// is clamped a couple of windows ahead of nextDeliver: sequence numbers
// in Prepare/Commit messages are unauthenticated, so one forged huge ID
// must not pin Lagging() true forever — the clamp keeps the signal
// (beyond the window ⇒ sync) while letting it heal as delivery (or a
// settle after a futile sync) advances.
func (r *Replica) observe(id int64) bool {
	ahead := r.maxAhead()
	if ahead < 0 {
		if id > r.highestSeen {
			r.highestSeen = id
		}
		return true
	}
	if capped := min(id, r.nextDeliver+2*ahead); capped > r.highestSeen {
		r.highestSeen = capped
	}
	if id >= r.nextDeliver+ahead {
		r.droppedAhead.Add(1)
		return false
	}
	return true
}

// SettleHighestSeen lowers the observed high-water mark to tip. The
// enclosing node calls it after a state-transfer round that found
// nothing newer than tip: whatever raised the mark beyond it (a forged
// sequence number, or traffic already superseded) is not fetchable, so
// leaving it high would re-trigger sync forever. Genuine new traffic
// raises the mark again immediately.
func (r *Replica) SettleHighestSeen(tip int64) {
	if tip < r.highestSeen {
		r.highestSeen = tip
	}
}

// Lagging reports whether this replica has observed consensus traffic so
// far beyond its delivery point that it has started dropping messages —
// the condition under which only a state transfer can restore liveness.
// Never true with an unbounded buffer (nothing is ever dropped).
func (r *Replica) Lagging() bool {
	ahead := r.maxAhead()
	return ahead >= 0 && r.highestSeen >= r.nextDeliver+ahead
}

// Reset re-bases the engine after a state transfer: the log prefix up to
// base (with the given batch digest, header, and consensus certificate)
// is installed out of band, so consensus resumes at base+1 with all
// per-slot state below (and any stale buffered state) discarded. The
// enclosing node guarantees base is a certified log position; header and
// cert become the certified tip carried in view-change votes.
func (r *Replica) Reset(base int64, digest protocol.Digest, header protocol.BatchHeader, cert cryptoutil.Certificate) {
	r.nextDeliver = base + 1
	r.nextValidate = base + 1
	r.nextPropose = base + 1
	r.lastDigest = digest
	r.lastValidated = digest
	r.lastHeader = header
	r.lastCert = cert
	r.instances = make(map[int64]*instance)
	r.pendingPrePrepare = make(map[int64]*PrePrepare)
	r.proposedDigest = make(map[int64]protocol.Digest)
	// Observations from before the reset describe slots the transfer
	// already covered (or forged numbers); discard them with the rest of
	// the stale state so Lagging() reflects post-reset traffic only.
	r.highestSeen = base
	// A NewView that was waiting for this replica to catch up may be
	// installable now that the transfer advanced the delivery point.
	if nv := r.pendingNewView; nv != nil {
		r.adoptNewView(nv)
	}
}

// TruncateBelow discards per-slot bookkeeping for slots below base (the
// cluster's stable checkpoint): equivocation evidence in proposedDigest
// and any stale buffered proposals or instances. Without this the
// evidence map grows for the life of the replica — slots that were
// proposed but never delivered (an equivocating leader's leftovers) were
// never cleaned up.
func (r *Replica) TruncateBelow(base int64) {
	for id := range r.proposedDigest {
		if id < base {
			delete(r.proposedDigest, id)
		}
	}
	for id := range r.pendingPrePrepare {
		if id < base {
			delete(r.pendingPrePrepare, id)
		}
	}
	for id := range r.instances {
		if id < base {
			delete(r.instances, id)
		}
	}
}

// Errors.
var (
	ErrNotLeader    = errors.New("bft: propose called on non-leader")
	ErrViewChanging = errors.New("bft: view change in progress")
	ErrBadBatchID   = errors.New("bft: proposed batch has wrong ID")
	ErrPipelineFull = errors.New("bft: MaxInFlight proposals already outstanding")
)

// Propose starts consensus on the next free slot. Only the current
// view's leader calls this; up to MaxInFlight proposals may be
// outstanding at once, and the batch must carry the next sequence number
// (NextID).
func (r *Replica) Propose(b *protocol.Batch) error {
	if !r.IsLeader() {
		return ErrNotLeader
	}
	if !r.CanPropose() {
		return ErrViewChanging
	}
	if b.ID != r.nextPropose {
		return fmt.Errorf("%w: got %d, want %d", ErrBadBatchID, b.ID, r.nextPropose)
	}
	if b.ID >= r.nextDeliver+int64(r.cfg.MaxInFlight) {
		return fmt.Errorf("%w: %d in flight", ErrPipelineFull, r.InFlight())
	}
	r.nextPropose = b.ID + 1
	if r.cfg.Behavior.TamperBatch != nil {
		// Mutating a proposal must never happen behind a sealed batch's
		// cached digest: the caller (the leader's core) may hold the
		// original in its speculative chain. Tampering therefore works on
		// a memo-detached copy; the injected function must copy any
		// segment slice it mutates (see DESIGN.md, "Digest memoization").
		b = b.MutableCopy()
		r.cfg.Behavior.TamperBatch(b)
	}
	if r.cfg.Behavior.Equivocate {
		// Byzantine leader: different content per replica.
		for i, peer := range r.peers {
			forged := b.MutableCopy()
			forged.Timestamp = b.Timestamp + int64(i)
			forged.Seal()
			d := forged.Digest()
			r.send(peer, &PrePrepare{View: r.view, Batch: forged, LeaderSig: r.cfg.Keys.Sign(d[:]), signer: r})
		}
		return nil
	}
	// Seal before broadcast: the digest computed here for the leader's
	// signature is the one every replica (and the leader's own validation
	// and delivery steps) will reuse.
	b.Seal()
	d := b.Digest()
	pp := &PrePrepare{View: r.view, Batch: b, LeaderSig: r.cfg.Keys.Sign(d[:]), signer: r}
	// The proposal reaches the leader itself through the transport too, so
	// Validate runs from the event loop and never inside Propose.
	r.multicast(r.peers, pp)
	return nil
}

func (r *Replica) send(to NodeID, msg any) {
	if r.cfg.Behavior.Silent {
		return
	}
	r.cfg.Net.Send(r.self, to, msg)
}

// broadcast sends msg to every other replica. Votes are recorded locally
// when they are cast, so a replica never messages itself.
func (r *Replica) broadcast(msg any) { r.multicast(r.others, msg) }

func (r *Replica) multicast(tos []NodeID, msg any) {
	if r.cfg.Behavior.Silent {
		return
	}
	// One envelope build and one network-lock acquisition for the whole
	// fan-out, instead of per peer.
	r.cfg.Net.Broadcast(r.self, tos, msg)
}

// verify checks one proposal or vote signature, counting it for
// SigVerifies.
func (r *Replica) verify(from NodeID, msg, sig []byte) bool {
	r.sigVerifies.Add(1)
	return cryptoutil.Verify(r.cfg.Ring.PublicKey(from), msg, sig)
}

// member reports whether from is a replica of this cluster. Votes are
// stored before they are verified, so this bounds their maps at n
// entries per slot.
func (r *Replica) member(from NodeID) bool {
	return from.Cluster == r.cfg.Cluster && from.Replica >= 0 && int(from.Replica) < r.cfg.N
}

// Handle processes one consensus message. It returns true if the message
// was a consensus message (consumed), false if the payload is not for this
// layer.
func (r *Replica) Handle(from NodeID, payload any) bool {
	switch m := payload.(type) {
	case *PrePrepare:
		r.onPrePrepare(from, m)
	case *Prepare:
		r.onPrepare(from, m)
	case *Commit:
		r.onCommit(from, m)
	case *protocol.ViewChange:
		r.onViewChange(from, m)
	case *protocol.NewView:
		r.onNewView(from, m)
	default:
		return false
	}
	return true
}

func (r *Replica) inst(id int64) *instance {
	in, ok := r.instances[id]
	if !ok {
		in = &instance{
			id:       id,
			prepares: make(map[int32]vote),
			commits:  make(map[int32]vote),
		}
		r.instances[id] = in
	}
	return in
}

func (r *Replica) onPrePrepare(from NodeID, m *PrePrepare) {
	if from.Cluster != r.cfg.Cluster || from.Replica != r.leaderAt(m.View) {
		return // only the view's leader proposes
	}
	if m.View != r.view || !r.viewActive {
		// Stale-view proposals are dead; future-view proposals mean we
		// missed a NewView — the Lagging/state-transfer path (which also
		// carries the cluster's view) catches us up.
		return
	}
	b := m.Batch
	if b == nil || b.Cluster != r.cfg.Cluster || b.ID < r.nextDeliver {
		return
	}
	if !r.observe(b.ID) {
		return // beyond the buffering window; state transfer catches us up
	}
	d := b.Digest()
	if m.signer != r && !r.verify(from, d[:], m.LeaderSig) {
		return // forged proposal
	}
	if prev, ok := r.proposedDigest[b.ID]; ok && prev != d {
		// Leader equivocation: conflicting proposals for the same slot.
		r.equivocations.Add(1)
		return
	}
	r.proposedDigest[b.ID] = d

	if b.ID > r.nextValidate {
		r.pendingPrePrepare[b.ID] = m
		return
	}
	r.startInstance(m)
}

// startInstance validates the proposal for the next slot of the
// validation chain and votes. Validation runs ahead of delivery: the slot
// must chain off the newest validated proposal, not the newest delivered
// one, so a pipelining leader's slots all enter their Prepare phase
// without waiting for predecessors to commit.
func (r *Replica) startInstance(m *PrePrepare) {
	b := m.Batch
	in := r.inst(b.ID)
	if in.validated || in.delivered || b.ID != r.nextValidate {
		return
	}
	if b.PrevDigest != r.lastValidated {
		r.rejected.Add(1)
		return // does not extend our (speculative) log
	}
	if r.cfg.Validate != nil {
		if err := r.cfg.Validate(b); err != nil {
			r.rejected.Add(1)
			return // withhold vote; malicious content dies here
		}
	}
	in.batch = b
	in.digest = b.Digest()
	in.view = r.view
	in.validated = true
	r.lastValidated = in.digest
	r.nextValidate = b.ID + 1
	for rep, c := range in.commits {
		if c.digest != in.digest {
			delete(in.commits, rep)
		}
	}
	r.broadcastPrepare(in)
	r.maybeCommit(in)
	r.maybeDeliver(in)
	// A buffered proposal for the next slot can be validated right away.
	if pp, ok := r.pendingPrePrepare[r.nextValidate]; ok {
		delete(r.pendingPrePrepare, r.nextValidate)
		r.startInstance(pp)
	}
}

// broadcastPrepare signs this replica's prepare for the instance in its
// adopted view, records it locally as a verified vote, and sends it to
// the other replicas.
func (r *Replica) broadcastPrepare(in *instance) {
	psd := protocol.PrepareSigDigest(r.cfg.Cluster, in.view, in.id, in.digest)
	sig := r.cfg.Keys.Sign(psd[:])
	if r.cfg.Behavior.CorruptPrepareSig {
		sig = make([]byte, len(sig)) // zeroed garbage
	} else {
		in.prepares[r.cfg.Replica] = vote{view: in.view, digest: in.digest, sig: sig, verified: true}
	}
	r.broadcast(&Prepare{View: in.view, ID: in.id, Digest: in.digest, Sig: sig})
}

func (r *Replica) onPrepare(from NodeID, m *Prepare) {
	if !r.member(from) || m.ID < r.nextDeliver {
		return
	}
	if !r.observe(m.ID) {
		return
	}
	in := r.inst(m.ID)
	r.admit(in, in.prepares, from.Replica, vote{view: m.View, digest: m.Digest, sig: m.Sig}, true)
	r.maybeCommit(in)
	r.maybeDeliver(in)
}

// admit stores v as rep's vote unless the vote already stored for rep
// takes precedence; prepare selects prepare rather than commit rules.
// Votes are stored unverified and a message's sender is not
// authenticated, so a conflict is settled by checking signatures: a
// prepare from a newer view displaces the stored one only if it verifies,
// and any other vote is refused only if the stored one verifies — a
// forgery that arrived first is dropped instead of shadowing the honest
// vote. Honest replicas never send conflicting votes within a view, so a
// healthy cluster pays for none of these checks.
func (r *Replica) admit(in *instance, votes map[int32]vote, rep int32, v vote, prepare bool) {
	if prev, ok := votes[rep]; ok {
		if prepare && v.view > prev.view {
			if !r.checkVote(in.id, rep, &v, prepare) {
				return
			}
		} else if prev.verified || r.checkVote(in.id, rep, &prev, prepare) {
			votes[rep] = prev
			return
		}
	}
	votes[rep] = v
}

// checkVote verifies rep's stored vote for slot id and records the
// result in v.verified.
func (r *Replica) checkVote(id int64, rep int32, v *vote, prepare bool) bool {
	msg := v.digest
	if prepare {
		msg = protocol.PrepareSigDigest(r.cfg.Cluster, v.view, id, v.digest)
	}
	v.verified = r.verify(NodeID{Cluster: r.cfg.Cluster, Replica: rep}, msg[:], v.sig)
	return v.verified
}

// counts reports whether a stored vote counts toward the instance's
// quorum: a commit must carry the validated digest, a prepare must also
// have been cast in the view this replica validated the slot in.
func counts(in *instance, v vote, prepare bool) bool {
	return v.digest == in.digest && (!prepare || v.view == in.view)
}

// quorum reports whether votes hold 2f+1 verified votes that count for
// the instance. This is where peer votes are verified: nothing is checked
// until the stored votes could complete a quorum; then the unverified
// ones are checked in replica order until 2f+1 verified votes are held.
// A vote that fails is dropped, so the replica waits for the next one.
func (r *Replica) quorum(in *instance, votes map[int32]vote, prepare bool) bool {
	need := 2*r.cfg.F + 1
	matching, verified := 0, 0
	for _, v := range votes {
		if counts(in, v, prepare) {
			matching++
			if v.verified {
				verified++
			}
		}
	}
	if matching < need {
		return false
	}
	for rep := int32(0); verified < need && int(rep) < r.cfg.N; rep++ {
		v, ok := votes[rep]
		if !ok || v.verified || !counts(in, v, prepare) {
			continue
		}
		if r.checkVote(in.id, rep, &v, prepare) {
			votes[rep] = v
			verified++
		} else {
			delete(votes, rep)
		}
	}
	return verified >= need
}

// maybeCommit sends the Commit vote once 2f+1 matching Prepares are held
// for the digest this replica validated, in the view it validated it.
// The per-view match is what makes "prepared" transferable: any replica
// holding a commit quorum member's evidence holds 2f+1 signatures over
// one (view, id, digest) triple.
func (r *Replica) maybeCommit(in *instance) {
	if !in.validated || in.committed || !r.quorum(in, in.prepares, true) {
		return
	}
	in.committed = true
	sig := r.cfg.Keys.Sign(in.digest[:])
	if r.cfg.Behavior.CorruptCertSig {
		sig = make([]byte, len(sig)) // zeroed garbage
	} else {
		in.commits[r.cfg.Replica] = vote{view: in.view, digest: in.digest, sig: sig, verified: true}
	}
	r.broadcast(&Commit{View: in.view, ID: in.id, Digest: in.digest, CertSig: sig})
}

func (r *Replica) onCommit(from NodeID, m *Commit) {
	if !r.member(from) || m.ID < r.nextDeliver {
		return
	}
	if !r.observe(m.ID) {
		return
	}
	in := r.inst(m.ID)
	r.acceptCommit(in, from, m)
	r.maybeDeliver(in)
}

// acceptCommit stores a peer's commit vote, unverified. Once the proposal
// is validated a vote for any other digest is dropped at once; its
// certificate signature is verified only if the vote is counted toward
// the delivery quorum, so corrupt signatures never reach the assembled
// certificate.
func (r *Replica) acceptCommit(in *instance, from NodeID, m *Commit) {
	if in.validated && m.Digest != in.digest {
		return
	}
	r.admit(in, in.commits, from.Replica, vote{view: m.View, digest: m.Digest, sig: m.CertSig}, false)
}

// maybeDeliver delivers the instance once it holds a 2f+1 commit quorum,
// assembling the f+1-signature certificate from the verified commit
// signatures. Delivery is strictly in ID order.
func (r *Replica) maybeDeliver(in *instance) {
	if in.delivered || !in.validated || in.id != r.nextDeliver || !r.quorum(in, in.commits, false) {
		return
	}
	in.delivered = true

	// Deterministic certificate: lowest verified replica indices first.
	cert := cryptoutil.Certificate{Cluster: r.cfg.Cluster}
	for rep := int32(0); len(cert.Signatures) <= r.cfg.F && int(rep) < r.cfg.N; rep++ {
		if c, ok := in.commits[rep]; ok && c.verified && counts(in, c, false) {
			cert.Signatures = append(cert.Signatures, cryptoutil.Signature{
				Signer: NodeID{Cluster: r.cfg.Cluster, Replica: rep},
				Sig:    c.sig,
			})
		}
	}

	r.lastDigest = in.digest
	r.lastHeader = in.batch.Header()
	r.lastCert = cert
	r.nextDeliver = in.id + 1
	delete(r.instances, in.id)
	delete(r.proposedDigest, in.id)

	if r.cfg.Deliver != nil {
		r.cfg.Deliver(protocol.CertifiedBatch{Batch: in.batch, Cert: cert})
	}

	// A pipelined successor may already hold its commit quorum; deliver it
	// now that it is next in line.
	if next, ok := r.instances[r.nextDeliver]; ok {
		r.maybeDeliver(next)
	}

	// A NewView that was waiting on our delivery point may be installable
	// now (it clears pendingNewView before touching instances, so the
	// recursion above cannot re-enter it).
	if nv := r.pendingNewView; nv != nil {
		r.adoptNewView(nv)
	}
}
