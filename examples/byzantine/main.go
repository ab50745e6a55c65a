// Byzantine: the fault fleet. Stages eight attacks against a TransEdge
// deployment and asserts the system survives every one of them with f
// faults.
//
// Read-only path (the paper's verified-snapshot guarantee):
//  1. leader serves forged values        -> client verification rejects
//  2. leader serves truncated proofs     -> client verification rejects
//  3. leader replays a stale snapshot    -> staleness bound rejects
//
// Consensus path (the PBFT view change, DESIGN.md §7):
//  4. crashed leader                     -> survivors elect a new leader
//  5. equivocating leader                -> deposed, honest quorum moves on
//  6. vote-withholding follower          -> cluster commits without it
//  7. forged checkpoint votes            -> rejected, checkpoints stabilize
//  8. asymmetric partition of the leader -> followers time out and fail over
//
// This example wires the deployment through the internal packages because
// fault injection is (deliberately) not part of the public API.
//
//	go run ./examples/byzantine
//
// With -datadir every staged deployment also runs the durability layer
// (WAL + disk checkpoints, each attack in its own subdirectory), so the
// fleet doubles as a check that fault handling and the durability path
// compose.
//
//	go run ./examples/byzantine -datadir /tmp/fleet
//
// With -engine every staged deployment runs the chosen storage backend,
// so the fleet also checks that fault handling composes with, e.g., the
// log-structured engine:
//
//	go run ./examples/byzantine -engine lsm
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"transedge/internal/bft"
	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/protocol"
	"transedge/internal/store"
	"transedge/internal/transport"

	_ "transedge/internal/store/lsm" // registers the "lsm" engine for -engine
)

// datadir, when set, turns on the durability layer for every staged
// deployment. Each build gets its own subdirectory: the attacks reuse
// one seed, and a shared dir would make attack N+1 cold-restart from
// attack N's WAL instead of starting fresh.
var (
	datadir  = flag.String("datadir", "", "enable durability; each attack uses its own subdir")
	engine   = flag.String("engine", "", "storage backend per replica (default: sharded); see internal/store engine registry")
	fleetSeq int
)

func fleetDataDir() string {
	if *datadir == "" {
		return ""
	}
	fleetSeq++
	return filepath.Join(*datadir, fmt.Sprintf("attack-%02d", fleetSeq))
}

func buildSystem(ro map[core.NodeID]core.ROBehavior) *core.System {
	data := map[string][]byte{}
	for i := 0; i < 40; i++ {
		data[fmt.Sprintf("key-%02d", i)] = []byte("genuine")
	}
	sys := core.NewSystem(core.SystemConfig{
		Clusters:      2,
		F:             1,
		Seed:          9,
		BatchInterval: time.Millisecond,
		InitialData:   data,
		ROByzantine:   ro,
		DataDir:       fleetDataDir(),
		Engine:        *engine,
	})
	sys.Start()
	return sys
}

// buildFaultSystem is the consensus-fleet variant: one cluster with
// leader failover enabled, so the view-change machinery (not the client)
// is what has to absorb the fault.
func buildFaultSystem(mut func(*core.SystemConfig)) *core.System {
	data := map[string][]byte{}
	for i := 0; i < 40; i++ {
		data[fmt.Sprintf("key-%02d", i)] = []byte("genuine")
	}
	cfg := core.SystemConfig{
		Clusters:           1,
		F:                  1,
		Seed:               9,
		BatchInterval:      time.Millisecond,
		CheckpointInterval: 8,
		ViewTimeout:        30 * time.Millisecond,
		InitialData:        data,
		DataDir:            fleetDataDir(),
		Engine:             *engine,
	}
	if mut != nil {
		mut(&cfg)
	}
	sys := core.NewSystem(cfg)
	sys.Start()
	return sys
}

func newClient(sys *core.System, staleness time.Duration) *client.Client {
	return client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 5 * time.Second,
		MaxStaleness: staleness,
	})
}

// faultClient uses a tight timeout so failed attempts rotate across
// replicas quickly — that contact rotation is what arms the survivors'
// leader-progress timers while the leader is dead or byzantine.
func faultClient(sys *core.System) *client.Client {
	return client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: 2 * time.Second,
	})
}

func keysFor(sys *core.System) []string {
	var keys []string
	for i := 0; i < 40 && len(keys) < 4; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if sys.Part.Of(k) == 0 { // served by the malicious leader
			keys = append(keys, k)
		}
	}
	return keys
}

// commitSome pushes n sequential single-key writes through the cluster,
// failing the fleet if any one of them errors.
func commitSome(c *client.Client, keys []string, tag string, n int) {
	for i := 0; i < n; i++ {
		txn := c.Begin()
		txn.Write(keys[i%len(keys)], []byte(fmt.Sprintf("%s-%d", tag, i)))
		if err := txn.Commit(); err != nil {
			log.Fatalf("  FLEET FAILED: commit %s-%d: %v", tag, i, err)
		}
	}
}

// pokeUntilCommit retries single-key commits until one succeeds. Each
// failed attempt still does protocol work: it lands on some replica,
// which forwards toward the faulty leader and arms its leader-progress
// timer — exactly how real client traffic drives a view change.
func pokeUntilCommit(c *client.Client, keys []string, deadline time.Duration) time.Duration {
	start := time.Now()
	limit := start.Add(deadline)
	var lastErr error
	for i := 0; time.Now().Before(limit); i++ {
		txn := c.Begin()
		txn.Write(keys[i%len(keys)], []byte(fmt.Sprintf("poke-%d", i)))
		if lastErr = txn.Commit(); lastErr == nil {
			return time.Since(start)
		}
	}
	log.Fatalf("  FLEET FAILED: no commit before the deadline; last error: %v", lastErr)
	return 0
}

// requireNewView asserts every replica in rs moved past view 0.
//
// A commit needs only a 2f+1 quorum of the new view, which may include a
// deposed leader that follows honestly, so a listed replica can still be
// installing the NewView when the first commit returns; it gets 10s.
func requireNewView(sys *core.System, rs ...int32) {
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range rs {
		for sys.Node(core.NodeID{Cluster: 0, Replica: r}).CurrentView() == 0 {
			if time.Now().After(deadline) {
				log.Fatalf("  FLEET FAILED: replica %d never left view 0", r)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func main() {
	flag.Parse()
	if *engine != "" {
		// Fail fast with the valid names instead of staging eight attacks
		// against a typo'd backend label.
		probe, err := store.NewEngine(*engine, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if c, ok := probe.(interface{ Close() }); ok {
			c.Close()
		}
	}
	evil := core.NodeID{Cluster: 0, Replica: 0} // the partition's leader

	fmt.Println("attack 1: leader serves forged values (proofs unchanged)")
	sys := buildSystem(map[core.NodeID]core.ROBehavior{evil: {CorruptValues: true}})
	_, err := newClient(sys, 0).ReadOnly(keysFor(sys))
	report(err, client.ErrVerification)
	sys.Stop()

	fmt.Println("attack 2: leader serves truncated Merkle proofs")
	sys = buildSystem(map[core.NodeID]core.ROBehavior{evil: {CorruptProofs: true}})
	_, err = newClient(sys, 0).ReadOnly(keysFor(sys))
	report(err, client.ErrVerification)
	sys.Stop()

	fmt.Println("attack 3: leader replays an old (but internally consistent) snapshot")
	sys = buildSystem(map[core.NodeID]core.ROBehavior{evil: {ServeStaleBatch: true}})
	time.Sleep(150 * time.Millisecond) // let the genesis snapshot age
	_, err = newClient(sys, 100*time.Millisecond).ReadOnly(keysFor(sys))
	report(err, client.ErrStale)
	fmt.Println("  (without a staleness bound this attack is undetectable — the")
	fmt.Println("   freshness limitation the paper concedes in Sec. 4.4.2)")
	if _, lax := newClient(sys, 0).ReadOnly(keysFor(sys)); lax == nil {
		fmt.Println("  unbounded client accepted the stale snapshot, as expected")
	}
	sys.Stop()

	crashedLeader()
	equivocatingLeader()
	withholdingFollower()
	forgedCheckpointVotes()
	asymmetricPartition()

	fmt.Println("all attacks detected or survived")
}

// attack 4: the leader process dies. The survivors' progress timers fire,
// 2f+1 view-change votes form a NewView, and replica 1 takes over.
func crashedLeader() {
	fmt.Println("attack 4: crashed leader (process killed mid-run)")
	sys := buildFaultSystem(nil)
	defer sys.Stop()
	c := faultClient(sys)
	keys := keysFor(sys)

	commitSome(c, keys, "pre", 5)
	sys.StopReplica(core.NodeID{Cluster: 0, Replica: 0})
	took := pokeUntilCommit(c, keys, 20*time.Second)
	if lead := sys.Leader(0); lead.Replica == 0 {
		log.Fatalf("  FLEET FAILED: cluster still routed to the dead leader %v", lead)
	}
	requireNewView(sys, 1, 2, 3)
	commitSome(c, keys, "post", 10)
	fmt.Printf("  survived: commits resumed %v after the kill, leader now %v\n",
		took.Round(time.Millisecond), sys.Leader(0))
}

// attack 5: the leader equivocates — a different batch to every follower.
// No prepare quorum can form on any one digest, progress stalls, and the
// honest replicas depose it.
func equivocatingLeader() {
	fmt.Println("attack 5: equivocating leader (conflicting proposals per follower)")
	sys := buildFaultSystem(func(cfg *core.SystemConfig) {
		cfg.Byzantine = map[core.NodeID]bft.Behavior{
			{Cluster: 0, Replica: 0}: {Equivocate: true},
		}
	})
	defer sys.Stop()
	c := faultClient(sys)
	keys := keysFor(sys)

	took := pokeUntilCommit(c, keys, 20*time.Second)
	requireNewView(sys, 1, 2, 3)
	commitSome(c, keys, "post", 10)
	fmt.Printf("  survived: equivocator deposed, commits flowed %v after first poke\n",
		took.Round(time.Millisecond))
}

// attack 6: f followers go mute and withhold every vote. The leader still
// reaches its 2f+1 quorum from the remaining replicas; nobody suspects
// anybody, and no spurious view change fires.
func withholdingFollower() {
	fmt.Println("attack 6: vote-withholding follower (f mute replicas)")
	sys := buildFaultSystem(func(cfg *core.SystemConfig) {
		// This scenario asserts NO failover happens, so the watchdog gets
		// headroom against race-detector scheduling stalls.
		cfg.ViewTimeout = 500 * time.Millisecond
		cfg.Byzantine = map[core.NodeID]bft.Behavior{
			{Cluster: 0, Replica: 3}: {Silent: true},
		}
	})
	defer sys.Stop()
	c := faultClient(sys)
	keys := keysFor(sys)

	commitSome(c, keys, "mute", 20)
	for r := int32(0); r < 3; r++ {
		if v := sys.Node(core.NodeID{Cluster: 0, Replica: r}).CurrentView(); v != 0 {
			log.Fatalf("  FLEET FAILED: spurious view change to %d on replica %d", v, r)
		}
	}
	fmt.Println("  survived: 20 commits with a mute follower, view unchanged")
}

// attack 7: an attacker spoofing replica 3 floods the cluster with forged
// checkpoint votes — divergent state digests, garbage signatures — at
// every upcoming checkpoint boundary. Honest replicas ignore digests that
// don't match their own derived state and verify every signature, so the
// forgeries can at worst displace replica 3's buffered vote; checkpoints
// stabilize from the honest quorum and a verified read still passes.
func forgedCheckpointVotes() {
	fmt.Println("attack 7: forged checkpoint votes (spoofed replica, bogus digests)")
	sys := buildFaultSystem(func(cfg *core.SystemConfig) {
		// Checkpoint hygiene, not failover, is under test here — keep the
		// watchdog from firing on race-detector stalls.
		cfg.ViewTimeout = 500 * time.Millisecond
	})
	defer sys.Stop()
	c := faultClient(sys)
	keys := keysFor(sys)

	forger := core.NodeID{Cluster: 0, Replica: 3}
	bogus := protocol.Digest{0xde, 0xad, 0xbe, 0xef}
	for id := int64(8); id <= 64; id += 8 {
		for r := int32(0); r < 3; r++ {
			sys.Net.Send(forger, core.NodeID{Cluster: 0, Replica: r}, &protocol.Checkpoint{
				Cluster: 0, BatchID: id, StateDigest: bogus,
				Replica: 3, Sig: []byte("not-a-signature"),
			})
		}
	}

	commitSome(c, keys, "chk", 40) // crosses several checkpoint boundaries
	deadline := time.Now().Add(10 * time.Second)
	for {
		stable := 0
		for r := int32(0); r < 4; r++ {
			if sys.Node(core.NodeID{Cluster: 0, Replica: r}).StableCheckpoint() > 0 {
				stable++
			}
		}
		if stable == 4 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("  FLEET FAILED: only %d/4 replicas stabilized a checkpoint", stable)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := newClient(sys, 0).ReadOnly(keys); err != nil {
		log.Fatalf("  FLEET FAILED: verified read after forged votes: %v", err)
	}
	fmt.Println("  survived: forgeries rejected, checkpoints stable on 4/4, reads verify")
}

// attack 8: an asymmetric partition — the leader still hears the cluster
// but none of its own messages get through. The nastiest failover shape:
// the leader believes it leads while the followers starve, time out, and
// vote it out without it.
func asymmetricPartition() {
	fmt.Println("attack 8: asymmetric partition (leader outbound silently dropped)")
	sys := buildFaultSystem(nil)
	defer sys.Stop()
	c := faultClient(sys)
	keys := keysFor(sys)

	commitSome(c, keys, "pre", 5)
	leader := core.NodeID{Cluster: 0, Replica: 0}
	sys.Net.SetFilter(transport.SilenceOutbound(leader, func(to core.NodeID) bool {
		return to.Cluster == 0 && to != leader
	}))
	took := pokeUntilCommit(c, keys, 20*time.Second)
	if lead := sys.Leader(0); lead.Replica == 0 {
		log.Fatalf("  FLEET FAILED: cluster still routed to the partitioned leader %v", lead)
	}
	requireNewView(sys, 1, 2, 3)
	commitSome(c, keys, "post", 10)
	fmt.Printf("  survived: partitioned leader voted out, commits resumed after %v\n",
		took.Round(time.Millisecond))
}

func report(err, want error) {
	if err == nil {
		log.Fatal("  ATTACK SUCCEEDED: client accepted a forged response")
	}
	if !errors.Is(err, want) {
		log.Fatalf("  unexpected error class: %v", err)
	}
	fmt.Printf("  detected and rejected: %v\n", err)
}
