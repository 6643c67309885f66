package stream

import (
	"math"
	"sort"
	"time"

	"sgb/internal/core"
	"sgb/internal/engine"
	"sgb/internal/geom"
)

// view is the manager's live state for one materialized view: the long-lived
// grouper the committed row stream feeds, the current group state, the delta
// ring, and the attached subscribers. All access is serialized by the
// manager's mutex.
type view struct {
	name  string
	shape *engine.MatViewShape
	opt   core.Options
	mode  engine.SGBMode

	// Exactly one grouper is live, matching mode. The grouper is the
	// incremental computation itself: it has consumed rows [0, applied) of
	// the base table in row order, so its state equals a from-scratch run
	// over that prefix.
	anyG    *core.AnyGrouper
	allG    *core.AllGrouper
	applied int

	// state is the materialized grouping: group id (smallest member row id)
	// → ascending member row ids. groupOf inverts it for the SGB-Any fast
	// path, whose per-insert delta derivation never scans the whole state.
	state   map[int64][]int64
	groupOf map[int64]int64

	// lastSeq is the Seq of the newest emitted delta; floor bounds ring
	// retention (deltas with Seq <= floor are gone — tokens below it rebase
	// onto a snapshot). ring holds the most recent deltas, oldest first.
	lastSeq uint64
	floor   uint64
	ring    []Delta
	ringCap int
	// ringBytes is the ring's estimated footprint, reserved with the engine
	// memory governor (background, non-failing) so admission decisions see
	// matview retention as real memory.
	ringBytes int64

	subs map[*Subscription]struct{}

	// err marks the view broken (e.g. a NULL grouping value): maintenance
	// stops, Subscribe refuses, and /debug/views surfaces the message.
	err error

	// Telemetry: total deltas emitted, full rebuilds, wall time of the last
	// applied commit, and an exponentially-decayed delta rate (60s time
	// constant) — the per-view delta-rate/staleness numbers /debug/views
	// reports.
	deltas      uint64
	rebuilds    uint64
	lastApplyNS int64
	rateEWMA    float64
	rateNS      int64

	ptBuf geom.Point
}

// newView builds the live state for shape, with an empty grouper.
func newView(name string, shape *engine.MatViewShape, ringCap int) (*view, error) {
	v := &view{
		name:    name,
		shape:   shape,
		mode:    shape.Spec.Mode,
		ringCap: ringCap,
		state:   make(map[int64][]int64),
		groupOf: make(map[int64]int64),
		subs:    make(map[*Subscription]struct{}),
	}
	v.opt = core.Options{
		Metric:    shape.Spec.Metric,
		Eps:       shape.Spec.Eps,
		Overlap:   shape.Spec.Overlap,
		Algorithm: core.IndexBounds,
	}
	return v, v.resetGrouper()
}

// resetGrouper replaces the grouper with a fresh one (view creation and full
// rebuilds). The group state maps are left to the caller.
func (v *view) resetGrouper() error {
	v.applied = 0
	switch v.mode {
	case engine.SGBAnyMode:
		g, err := core.NewAnyGrouper(v.opt)
		if err != nil {
			return err
		}
		v.anyG, v.allG = g, nil
	default:
		g, err := core.NewAllGrouper(v.opt)
		if err != nil {
			return err
		}
		v.allG, v.anyG = g, nil
	}
	return nil
}

// applyAppend feeds base-table rows [applied, len) into the live grouper and
// returns the resulting deltas, unstamped (the manager assigns Seq). Inserts
// never touch existing rows, so the grouper simply continues its stream.
func (v *view) applyAppend(db *engine.DB) ([]Delta, error) {
	var out []Delta
	grew := false
	n, err := db.ScanFloats(v.shape.Table, v.shape.ColIdx, v.applied, func(row int, coords []float64) error {
		grew = true
		if v.mode == engine.SGBAnyMode {
			ds, err := v.addAny(coords)
			out = append(out, ds...)
			return err
		}
		// AllGrouper retains the point slice; coords is a reused buffer.
		_, err := v.allG.Add(append(geom.Point(nil), coords...))
		return err
	})
	if err != nil {
		return nil, err
	}
	v.applied = n
	if v.mode != engine.SGBAnyMode && grew {
		newState, err := v.allState()
		if err != nil {
			return nil, err
		}
		out = append(out, diffGroups(v.state, newState)...)
		v.state = newState
	}
	return out, nil
}

// addAny feeds one point to the SGB-Any grouper and derives the deltas
// directly from the merge links — O(probe) work, no state-wide scan. The
// surviving group id of a merge is the minimum of the linked group ids, which
// is also the minimum member overall (each group id is its smallest member
// and the new row id is larger than all of them), so ids stay content-stable.
func (v *view) addAny(coords []float64) ([]Delta, error) {
	v.ptBuf = append(v.ptBuf[:0], coords...)
	id64, links, err := v.anyG.AddLinked(v.ptBuf)
	if err != nil {
		return nil, err
	}
	id := int64(id64)
	if len(links) == 0 {
		v.state[id] = []int64{id}
		v.groupOf[id] = id
		return []Delta{{View: v.name, Kind: GroupCreated, Group: id, Members: []int64{id}}}, nil
	}
	// Distinct prior groups the new point connected, ascending.
	gids := make([]int64, 0, len(links))
	for _, l := range links {
		g := v.groupOf[int64(l)]
		dup := false
		for _, seen := range gids {
			if seen == g {
				dup = true
				break
			}
		}
		if !dup {
			gids = append(gids, g)
		}
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	survivor := gids[0]
	var out []Delta
	if len(gids) > 1 {
		merged := append([]int64(nil), gids[1:]...)
		acc := v.state[survivor]
		for _, g := range merged {
			for _, m := range v.state[g] {
				v.groupOf[m] = survivor
			}
			acc = mergeSorted(acc, v.state[g])
			delete(v.state, g)
		}
		v.state[survivor] = acc
		out = append(out, Delta{View: v.name, Kind: GroupsMerged, Group: survivor, Merged: merged})
	}
	v.state[survivor] = append(v.state[survivor], id) // id is the largest: stays sorted
	v.groupOf[id] = survivor
	out = append(out, Delta{View: v.name, Kind: MemberJoined, Group: survivor, Members: []int64{id}})
	return out, nil
}

// applyRebuild recomputes the grouping from scratch — the fallback for
// statements that can mutate or remove existing rows (UPDATE, DELETE) — and
// emits the difference against the previous state as ordinary deltas, so
// subscribers never need a special rebuild message.
func (v *view) applyRebuild(db *engine.DB) ([]Delta, error) {
	if err := v.resetGrouper(); err != nil {
		return nil, err
	}
	n, err := db.ScanFloats(v.shape.Table, v.shape.ColIdx, 0, func(row int, coords []float64) error {
		if v.mode == engine.SGBAnyMode {
			v.ptBuf = append(v.ptBuf[:0], coords...)
			_, err := v.anyG.Add(v.ptBuf)
			return err
		}
		_, err := v.allG.Add(append(geom.Point(nil), coords...))
		return err
	})
	if err != nil {
		return nil, err
	}
	v.applied = n
	v.rebuilds++
	newState, err := v.currentState()
	if err != nil {
		return nil, err
	}
	out := diffGroups(v.state, newState)
	v.state = newState
	v.rebuildGroupOf()
	return out, nil
}

// currentState materializes the live grouper's grouping as a state map.
func (v *view) currentState() (map[int64][]int64, error) {
	if v.mode == engine.SGBAnyMode {
		groups, err := v.anyG.Snapshot()
		if err != nil {
			return nil, err
		}
		return stateFromGroups(groups), nil
	}
	return v.allState()
}

// allState snapshots the SGB-All grouper into a state map.
func (v *view) allState() (map[int64][]int64, error) {
	res, err := v.allG.Snapshot()
	if err != nil {
		return nil, err
	}
	return stateFromGroups(res.Groups), nil
}

// rebuildGroupOf re-derives the member→group index from state (SGB-Any).
func (v *view) rebuildGroupOf() {
	if v.mode != engine.SGBAnyMode {
		return
	}
	v.groupOf = make(map[int64]int64, len(v.groupOf))
	for g, members := range v.state {
		for _, m := range members {
			v.groupOf[m] = g
		}
	}
}

// stateFromGroups converts core groups (sorted members, group id = smallest
// member) into the state-map representation.
func stateFromGroups(groups []core.Group) map[int64][]int64 {
	state := make(map[int64][]int64, len(groups))
	for _, g := range groups {
		ids := make([]int64, len(g.IDs))
		for i, id := range g.IDs {
			ids[i] = int64(id)
		}
		state[ids[0]] = ids
	}
	return state
}

// diffGroups computes the delta sequence that transforms old into new under
// the Apply replay semantics. For each old group, its target is the new group
// containing every one of its members (groups only grow into their target;
// any shrink or split dissolves the old group). Dissolutions are emitted
// first so a reused id is deleted before it is re-created; new groups are
// then visited in ascending id order, emitting Created (no sources), Joined
// (grew in place), or Merged+Joined (absorbed other groups, plus any fresh
// members).
func diffGroups(old, new map[int64][]int64) []Delta {
	var out []Delta
	// Old group id → target new group id; sources: new group id → old ids.
	// The common case — an insert that only grows groups in place — resolves
	// every old group through the same-id fast path; the member index that
	// finds absorbing groups is built lazily, only on the statements that
	// actually restructure (merges, overlap removals, rebuilds).
	sources := make(map[int64][]int64)
	var dissolved []int64
	var memberIdx map[int64]int64
	lookup := func(m int64) (int64, bool) {
		if memberIdx == nil {
			size := 0
			for _, nm := range new {
				size += len(nm)
			}
			memberIdx = make(map[int64]int64, size)
			for ng, nm := range new {
				for _, x := range nm {
					memberIdx[x] = ng
				}
			}
		}
		ng, ok := memberIdx[m]
		return ng, ok
	}
	// grewInPlace reports the fast path: group ids are their smallest member,
	// so pure growth never renames a group — the target of og is og itself.
	// It is not recorded in sources, which would cost a slice per group.
	grewInPlace := func(g int64) bool {
		om, ok := old[g]
		return ok && containsAll(new[g], om)
	}
	for og, oMembers := range old {
		if grewInPlace(og) {
			continue
		}
		// The new groups partition the rows, so the only possible target is
		// the group now holding og's first member.
		ng, ok := lookup(oMembers[0])
		if !ok || !containsAll(new[ng], oMembers) {
			dissolved = append(dissolved, og)
			continue
		}
		sources[ng] = append(sources[ng], og)
	}
	sort.Slice(dissolved, func(i, j int) bool { return dissolved[i] < dissolved[j] })
	for _, og := range dissolved {
		out = append(out, Delta{Kind: GroupDissolved, Group: og})
	}
	newIDs := make([]int64, 0, len(new))
	for ng := range new {
		newIDs = append(newIDs, ng)
	}
	sort.Slice(newIDs, func(i, j int) bool { return newIDs[i] < newIDs[j] })
	for _, ng := range newIDs {
		nMembers := new[ng]
		srcs := sources[ng]
		inPlace := grewInPlace(ng)
		switch {
		case len(srcs) == 0 && !inPlace:
			out = append(out, Delta{Kind: GroupCreated, Group: ng, Members: append([]int64(nil), nMembers...)})
		case len(srcs) == 0:
			if fresh := subtract(nMembers, old[ng]); len(fresh) != 0 {
				out = append(out, Delta{Kind: MemberJoined, Group: ng, Members: fresh})
			}
		default:
			if inPlace {
				srcs = append(srcs, ng)
			}
			sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
			var merged []int64
			covered := []int64(nil)
			for _, og := range srcs {
				if og != ng {
					merged = append(merged, og)
				}
				covered = mergeSorted(covered, old[og])
			}
			if len(merged) != 0 {
				out = append(out, Delta{Kind: GroupsMerged, Group: ng, Merged: merged})
			}
			if fresh := subtract(nMembers, covered); len(fresh) != 0 {
				out = append(out, Delta{Kind: MemberJoined, Group: ng, Members: fresh})
			}
		}
	}
	return out
}

// containsAll reports whether ascending ids sup contains every ascending id
// in sub (one merge walk, no per-element search).
func containsAll(sup, sub []int64) bool {
	j := 0
	for _, x := range sub {
		for j < len(sup) && sup[j] < x {
			j++
		}
		if j >= len(sup) || sup[j] != x {
			return false
		}
		j++
	}
	return true
}

// subtract returns the ascending ids in a but not in b.
func subtract(a, b []int64) []int64 {
	var out []int64
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// noteApply folds one applied statement into the view telemetry.
func (v *view) noteApply(n int, now time.Time) {
	v.deltas += uint64(n)
	ns := now.UnixNano()
	if v.rateNS != 0 {
		dt := float64(ns-v.rateNS) / float64(time.Second)
		if dt > 0 {
			const tau = 60.0
			v.rateEWMA = v.rateEWMA*math.Exp(-dt/tau) + float64(n)/tau
		}
	} else {
		v.rateEWMA = float64(n) / 60.0
	}
	v.rateNS = ns
	v.lastApplyNS = ns
}
