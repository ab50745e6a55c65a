package core_test

import (
	"sync/atomic"
	"testing"
	"time"

	"transedge/internal/client"
	"transedge/internal/core"
	"transedge/internal/cryptoutil"
	"transedge/internal/protocol"
	"transedge/internal/transport"
)

// commitAcross commits one transaction writing a key on each of the
// first two clusters, with the given client timeout.
func commitAcross(t *testing.T, sys *core.System, timeout time.Duration) error {
	t.Helper()
	c := client.New(client.Config{
		ID: 1, Net: sys.Net, Ring: sys.Ring, Part: sys.Part,
		Clusters: sys.Cfg.Clusters, Timeout: timeout,
	})
	k0, k1 := keysOn(sys, 0, 1)[0], keysOn(sys, 1, 1)[0]
	txn := c.Begin()
	for _, k := range []string{k0, k1} {
		if _, err := txn.Read(k); err != nil {
			t.Fatalf("read %s: %v", k, err)
		}
		txn.Write(k, []byte("v-"+k))
	}
	return txn.Commit()
}

// zeroSigs returns cert with every signature replaced by zero bytes.
func zeroSigs(cert cryptoutil.Certificate) cryptoutil.Certificate {
	out := cryptoutil.Certificate{Cluster: cert.Cluster}
	for _, s := range cert.Signatures {
		out.Signatures = append(out.Signatures, cryptoutil.Signature{Signer: s.Signer, Sig: make([]byte, len(s.Sig))})
	}
	return out
}

// TestForgedCertificateDoesNotPoisonHonestMessage: the transport does not
// authenticate senders, so anyone can copy a real 2PC message and corrupt
// its certificate. A leader that receives such a copy just ahead of the
// honest message must still accept the honest one: a failed certificate
// check says nothing about the header it was paired with. The forgery is
// injected in front of the first prepare vote, and in front of the first
// coordinator prepare.
func TestForgedCertificateDoesNotPoisonHonestMessage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(payload any) any // nil: not a target
	}{
		{"PreparedVote", func(p any) any {
			v, ok := p.(*protocol.PreparedVote)
			if !ok || v.Vote != protocol.DecisionCommit || len(v.Proof.Cert.Signatures) == 0 {
				return nil
			}
			forged := *v
			forged.Proof.Cert = zeroSigs(v.Proof.Cert)
			return &forged
		}},
		{"CoordinatorPrepare", func(p any) any {
			m, ok := p.(*protocol.CoordinatorPrepare)
			if !ok || len(m.Proof.Cert.Signatures) == 0 {
				return nil
			}
			forged := *m
			forged.Proof.Cert = zeroSigs(m.Proof.Cert)
			return &forged
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := testSystem(t, 2, 1, 100)
			var fired atomic.Bool
			sys.Net.SetFilter(func(e transport.Envelope) bool {
				if forged := tc.forge(e.Payload); forged != nil && fired.CompareAndSwap(false, true) {
					sys.Net.Send(e.From, e.To, forged) // zero latency: lands first
				}
				return true
			})
			if err := commitAcross(t, sys, 3*time.Second); err != nil {
				t.Fatalf("distributed commit after a forged %s: %v", tc.name, err)
			}
			if !fired.Load() {
				t.Fatalf("no %s was forged", tc.name)
			}
		})
	}
}

// TestParticipantPrepareBuildsBatchWithoutTick: a participant leader
// proposes a coordinator's prepare as soon as the batching rule allows,
// like a commit request, instead of on its next batch tick. With a
// one-hour BatchInterval no tick fires during the test, and a batch of
// one transaction is full on arrival, so a 2PC commits only if every
// step builds its batch on the spot.
func TestParticipantPrepareBuildsBatchWithoutTick(t *testing.T) {
	sys := testSystem(t, 2, 1, 100, func(c *core.SystemConfig) {
		c.BatchInterval = time.Hour
		c.BatchMaxSize = 1
	})
	if err := commitAcross(t, sys, 5*time.Second); err != nil {
		t.Fatalf("distributed commit with no batch tick: %v", err)
	}
}
