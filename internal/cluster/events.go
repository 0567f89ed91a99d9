// Orchestration events: a structured, deterministic log of everything
// the supervisor and its node-local agents decide or observe. The chaos
// harness (internal/chaos) subscribes a registry of invariant checkers
// here, and the determinism regression tests assert that two runs of the
// same seed produce byte-identical renderings of this log. Events are
// facts about the orchestration layer only — no simulator ground truth
// flows through them.

package cluster

import (
	"fmt"
	"strings"

	"repro/internal/simtime"
)

// EventKind labels one orchestration event.
type EventKind string

// Orchestration event kinds.
const (
	// EvAdmit: a job incarnation was admitted (started or restarted) on
	// Node at fencing Epoch.
	EvAdmit EventKind = "admit"
	// EvAck: a checkpoint by the current incarnation was published and
	// acknowledged; Object names the committed image.
	EvAck EventKind = "ack"
	// EvStaleCommit: a stale-epoch incarnation's publish LANDED (only
	// possible with fencing disabled) — the split-brain double commit.
	EvStaleCommit EventKind = "stale-commit"
	// EvSelfFence: a stale incarnation was rejected by the storage server
	// and killed itself.
	EvSelfFence EventKind = "self-fence"
	// EvFailover: the supervisor acted on a suspicion of Node; Epoch is
	// the new (post-Advance) fencing epoch.
	EvFailover EventKind = "failover"
	// EvRestore: recovery restarted the job from the checkpoint chain
	// whose leaf is Object.
	EvRestore EventKind = "restore"
	// EvScratch: recovery found no usable checkpoint and restarted the
	// job from the beginning.
	EvScratch EventKind = "scratch"
	// EvComplete: the job finished; Object carries the result
	// fingerprint in hex.
	EvComplete EventKind = "complete"
	// EvRetire: chain garbage collection deleted the superseded
	// checkpoint Object after a rebase made it unreachable from the
	// recovery pointer.
	EvRetire EventKind = "retire"
	// EvCompact: the supervisor folded the live chain into a fresh full
	// image published under Object (the chain's own leaf name); the
	// folded ancestors are retired afterwards, each with its own EvRetire.
	EvCompact EventKind = "compact"
	// EvRebuddy: the replication policy reassigned a placement slot away
	// from a suspected node; Node is the slot's new holder and Object
	// records "slot=<i> from=<old>".
	EvRebuddy EventKind = "rebuddy"
	// EvRepair: a background re-replication sweep restored missing
	// replicas; Object records how many replica copies were rewritten.
	EvRepair EventKind = "repair"
)

// Event is one entry of the supervisor's orchestration log.
type Event struct {
	At     simtime.Time
	Kind   EventKind
	Node   int
	Epoch  uint64
	Object string
}

// String renders the event in the fixed format the determinism tests
// compare byte-for-byte.
func (e Event) String() string {
	s := fmt.Sprintf("%dns %s node=%d epoch=%d", int64(e.At), e.Kind, e.Node, e.Epoch)
	if e.Object != "" {
		s += " " + e.Object
	}
	return s
}

// FormatEvents renders an event log one event per line.
func FormatEvents(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// emit appends an event to the supervisor's log and notifies OnEvent.
func (s *Supervisor) emit(kind EventKind, node int, epoch uint64, object string) {
	ev := Event{At: s.cfg.C.Now(), Kind: kind, Node: node, Epoch: epoch, Object: object}
	s.Events = append(s.Events, ev)
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}
