// Package stream maintains materialized similarity-group views incrementally
// from the engine's committed statement stream and publishes their evolution
// as typed deltas.
//
// A materialized view (CREATE MATERIALIZED VIEW v AS SELECT ... GROUP BY ...
// WITHIN eps) names a single-table similarity grouping. Instead of
// recomputing the grouping per query, the stream layer keeps a long-lived
// core grouper per view and feeds it each committed base-table row in row
// order — exactly the computation a from-scratch recompute performs — so the
// incrementally maintained state is bit-identical to a fresh recompute at
// every prefix of the insert stream. That prefix invariant is the correctness
// contract subscribers rely on, and what the property tests pin. It needs row
// order, not order independence: SGB-Any's groups do not depend on the order
// rows arrive in, but SGB-All's are deterministic only given that order.
//
// Every state transition is published as a Delta. Deltas are totally ordered
// by Seq, a composite of the producing statement's WAL sequence and a
// per-statement index, which doubles as the resume token of the SUBSCRIBE
// protocol: a reconnecting client presents the Seq of the last delta it
// consumed and the manager replays everything after it from a bounded
// in-memory ring, or falls back to a full state snapshot when the token
// predates ring retention. Because the delta stream is a deterministic
// function of the statement stream, crash recovery regenerates the ring by
// WAL replay and resume tokens remain valid across a kill -9.
package stream

import "fmt"

// DeltaKind enumerates the group-state transitions a view can emit. The
// numeric values are shared with the wire protocol's delta encoding.
type DeltaKind uint8

const (
	// GroupCreated introduces a group: state[Group] = Members.
	GroupCreated DeltaKind = 1
	// MemberJoined adds Members to an existing group: state[Group] ∪= Members.
	MemberJoined DeltaKind = 2
	// GroupsMerged folds every group listed in Merged into Group (creating
	// Group if absent): state[Group] ∪= state[m]; delete state[m].
	GroupsMerged DeltaKind = 3
	// GroupDissolved removes a group: delete state[Group].
	GroupDissolved DeltaKind = 4
)

// String names the kind for logs and the CLI.
func (k DeltaKind) String() string {
	switch k {
	case GroupCreated:
		return "group_created"
	case MemberJoined:
		return "member_joined"
	case GroupsMerged:
		return "groups_merged"
	case GroupDissolved:
		return "group_dissolved"
	default:
		return fmt.Sprintf("DeltaKind(%d)", uint8(k))
	}
}

// seqShift packs a statement's WAL sequence and the index of a delta within
// that statement into one ordered uint64: Seq = walSeq<<seqShift | index.
// 2^20 deltas per statement is far above any real batch; WAL sequences keep
// 44 bits. StmtSeq and DeltaIndex recover the parts.
const seqShift = 20

// PackSeq builds a delta sequence number from a WAL sequence and a
// per-statement delta index.
func PackSeq(walSeq uint64, idx int) uint64 { return walSeq<<seqShift | uint64(idx) }

// StmtSeq extracts the WAL sequence a delta sequence was stamped with.
func StmtSeq(seq uint64) uint64 { return seq >> seqShift }

// Delta is one group-state transition of a materialized view. Group ids are
// stable and content-derived: a group is identified by its smallest member
// row id, which never changes while the group exists (new rows always get
// larger ids, and a merge's surviving id is the minimum of the sources).
type Delta struct {
	// View is the materialized view's name.
	View string
	// Seq totally orders the view's deltas and is the resume token (see
	// PackSeq).
	Seq uint64
	// Kind is the transition type.
	Kind DeltaKind
	// Group is the group the transition applies to.
	Group int64
	// Members carries the member row ids being introduced (GroupCreated,
	// MemberJoined); empty otherwise.
	Members []int64
	// Merged lists the group ids folded into Group (GroupsMerged only).
	Merged []int64
}

// Apply replays d onto state (group id → sorted member ids), the canonical
// replay semantics every consumer follows. Applying a view's delta stream, in
// Seq order, to the state as of any resume point reproduces the view's
// current state exactly.
func Apply(state map[int64][]int64, d Delta) {
	switch d.Kind {
	case GroupCreated:
		state[d.Group] = append([]int64(nil), d.Members...)
	case MemberJoined:
		state[d.Group] = mergeSorted(state[d.Group], d.Members)
	case GroupsMerged:
		acc := state[d.Group]
		for _, m := range d.Merged {
			acc = mergeSorted(acc, state[m])
			delete(state, m)
		}
		state[d.Group] = acc
	case GroupDissolved:
		delete(state, d.Group)
	}
}

// mergeSorted merges two ascending id slices into a fresh ascending slice.
func mergeSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
