package stream

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sgb/internal/engine"
	"sgb/internal/obs"
)

// DefaultRingCap bounds the per-view delta ring: resume tokens older than the
// ring's floor fall back to a snapshot rebase instead of delta replay.
const DefaultRingCap = 4096

// defaultSubBuf is the subscriber channel depth when Subscribe is given 0.
const defaultSubBuf = 256

// Manager owns every materialized view's live state. It implements the
// store's CommitObserver seam: Bootstrap primes it from the recovered
// database image, and Commit feeds it each durable statement (replayed or
// live) so view state, the delta ring, and subscriber streams advance in
// lock-step with the WAL.
//
// Commit runs on the engine's write path (statement lock held), so all view
// maintenance is synchronous with the commit: a subscriber can never observe
// a delta for a write that was not acknowledged, and vice versa only through
// the bounded channel buffer. Maintenance errors never fail the write — the
// view is marked broken and surfaced via Views/debug instead.
type Manager struct {
	mu      sync.Mutex
	db      *engine.DB
	ringCap int
	views   map[string]*view
	// seq numbers commits in standalone (no-WAL) mode, where AttachEngine
	// hooks the engine directly and there is no log sequence to borrow.
	seq uint64
}

// NewManager returns an empty manager with the default ring capacity.
func NewManager() *Manager {
	return &Manager{ringCap: DefaultRingCap, views: make(map[string]*view)}
}

// Bootstrap primes the manager from db's current catalog and contents: every
// materialized view gets a live grouper fed the full base table, silently (no
// deltas — this state predates any subscriber). seq is the WAL sequence the
// image covers; deltas from earlier statements are unrecoverable, so the ring
// floor starts there and older resume tokens rebase onto snapshots.
func (m *Manager) Bootstrap(db *engine.DB, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.db = db
	m.seq = seq
	for _, mv := range db.Catalog().MatViews() {
		m.bootstrapView(mv, seq)
	}
	m.metrics().Gauge("stream_views").Set(float64(len(m.views)))
}

// bootstrapView registers mv and feeds it the base table without emitting.
func (m *Manager) bootstrapView(mv *engine.View, seq uint64) {
	v, err := newView(mv.Name, mv.Shape, m.ringCap)
	if err == nil {
		_, err = v.applyAppend(m.db)
	}
	if err != nil {
		v.err = err
		m.metrics().Counter("stream_view_errors_total").Inc()
	}
	horizon := PackSeq(seq+1, 0) - 1
	v.floor, v.lastSeq = horizon, horizon
	m.views[strings.ToLower(mv.Name)] = v
}

// AttachEngine wires the manager to a non-durable engine: it bootstraps from
// the current contents and installs the engine commit hook, numbering
// statements with a private counter in place of WAL sequences. Durable
// deployments use the store's Observer seam instead; the two are mutually
// exclusive.
func (m *Manager) AttachEngine(db *engine.DB) {
	m.Bootstrap(db, 0)
	db.SetCommitHook(func(stmt engine.Statement, _ string, _ *obs.Trace) error {
		m.mu.Lock()
		m.seq++
		seq := m.seq
		m.mu.Unlock()
		m.Commit(stmt, seq)
		return nil
	})
}

// Commit observes one committed statement: materialized view DDL updates the
// view set (plain view DDL passes through), appends feed groupers
// incrementally, and mutating statements trigger a rebuild-and-diff. It is
// infallible by contract; see Manager.
func (m *Manager) Commit(stmt engine.Statement, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.db == nil {
		return
	}
	switch st := stmt.(type) {
	case *engine.CreateViewStmt:
		if mv, ok := m.db.Catalog().View(st.Name); ok && st.Materialized {
			m.bootstrapView(mv, seq)
			m.metrics().Gauge("stream_views").Set(float64(len(m.views)))
		}
	case *engine.DropViewStmt:
		key := strings.ToLower(st.Name)
		if v, ok := m.views[key]; ok && st.Materialized {
			m.dropViewLocked(key, v)
			m.metrics().Gauge("stream_views").Set(float64(len(m.views)))
		}
	case *engine.InsertStmt:
		m.applyToViews(st.Table, seq, false)
	case *engine.CopyStmt:
		m.applyToViews(st.Table, seq, false)
	case *engine.UpdateStmt:
		m.applyToViews(st.Table, seq, true)
	case *engine.DeleteStmt:
		m.applyToViews(st.Table, seq, true)
	}
}

// applyToViews advances every view over table: incremental append feed, or a
// full rebuild-and-diff for mutating statements.
func (m *Manager) applyToViews(table string, seq uint64, rebuild bool) {
	for _, v := range m.views {
		if v.err == nil && strings.EqualFold(v.shape.Table, table) {
			m.apply(v, seq, rebuild)
		}
	}
}

// apply advances one view — incremental append feed, or a full
// rebuild-and-diff — and publishes the resulting deltas at seq.
func (m *Manager) apply(v *view, seq uint64, rebuild bool) {
	reg := m.metrics()
	start := time.Now()
	var deltas []Delta
	var err error
	if rebuild {
		deltas, err = v.applyRebuild(m.db)
		reg.Counter("stream_rebuilds_total").Inc()
	} else {
		deltas, err = v.applyAppend(m.db)
	}
	if err != nil {
		// The view can no longer mirror the table faithfully; freeze it and
		// cut its subscribers rather than stream wrong state. The write
		// itself already committed and is not affected.
		v.err = err
		for sub := range v.subs {
			sub.drop()
		}
		reg.Counter("stream_view_errors_total").Inc()
		return
	}
	m.publish(v, seq, deltas)
	v.noteApply(len(deltas), time.Now())
	reg.Counter("stream_deltas_total").Add(int64(len(deltas)))
	reg.Histogram("stream_apply_seconds", obs.DefBuckets).Observe(time.Since(start).Seconds())
}

// publish stamps deltas with their composite sequence, appends them to the
// ring (evicting the oldest past capacity), and fans them out to subscribers.
// Eviction reslices the ring's front away; once that has used up the backing
// array, the live entries move to a fresh one of 2×ringCap, so eviction costs
// amortized O(1) and the ring retains at most 2×ringCap entries.
// A subscriber whose buffer is full is lagging: it is dropped, and the server
// side re-attaches it from its last delivered token (delta replay from the
// ring), which is cheaper than blocking the commit path.
func (m *Manager) publish(v *view, walSeq uint64, deltas []Delta) {
	for i := range deltas {
		deltas[i].View = v.name
		deltas[i].Seq = PackSeq(walSeq, i)
	}
	if len(deltas) == 0 {
		// Even silent statements advance the view's position so resume
		// tokens taken after them stay ahead of the floor.
		v.lastSeq = PackSeq(walSeq+1, 0) - 1
		return
	}
	var memDelta int64
	for _, d := range deltas {
		if len(v.ring) >= v.ringCap {
			v.floor = v.ring[0].Seq
			memDelta -= deltaBytes(v.ring[0])
			v.ring = v.ring[1:]
			if len(v.ring) == cap(v.ring) {
				v.ring = append(make([]Delta, 0, 2*v.ringCap), v.ring...)
			}
		}
		v.ring = append(v.ring, d)
		memDelta += deltaBytes(d)
		v.lastSeq = d.Seq
		for sub := range v.subs {
			select {
			case sub.C <- d:
			default:
				sub.drop()
			}
		}
	}
	v.ringBytes += memDelta
	if m.db != nil {
		// Background reservation with the engine memory governor: ring
		// retention counts toward the process footprint but never fails a
		// commit.
		m.db.ReserveMemory(memDelta)
	}
}

// deltaBytes estimates one ring entry's footprint for memory accounting.
func deltaBytes(d Delta) int64 {
	return 96 + 8*int64(len(d.Members)+len(d.Merged))
}

// dropViewLocked removes a view, cutting subscribers and returning its ring
// reservation to the memory governor. Caller holds m.mu.
func (m *Manager) dropViewLocked(key string, v *view) {
	for sub := range v.subs {
		sub.drop()
	}
	delete(m.views, key)
	if m.db != nil && v.ringBytes != 0 {
		m.db.ReserveMemory(-v.ringBytes)
		v.ringBytes = 0
	}
}

// Resync rebuilds every view against the engine's current contents and
// publishes the resulting diffs at seq. The store calls it after promoting
// out of the degraded (read-only) state: statements that applied in memory
// but failed durability never reached Commit, so view state may trail the
// base tables it mirrors.
func (m *Manager) Resync(db *engine.DB, seq uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.db == nil {
		m.db = db
	}
	for _, v := range m.views {
		if v.err == nil {
			m.apply(v, seq, true)
		}
	}
}

// metrics returns the engine's registry (or a throwaway before Bootstrap).
func (m *Manager) metrics() *obs.Registry {
	if m.db != nil {
		return m.db.Metrics()
	}
	return obs.NewRegistry()
}

// Subscription is one attached delta consumer. Deltas arrive on C strictly in
// Seq order; C closes when the subscriber lags past its buffer, the view
// breaks or is dropped, or Close is called. After a close the consumer
// re-attaches with its last consumed Seq as the token.
type Subscription struct {
	View string
	C    chan Delta

	m      *Manager
	v      *view
	closed bool
}

// drop detaches and closes under the manager lock.
func (s *Subscription) drop() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.v.subs, s)
	close(s.C)
}

// Close detaches the subscription; safe to call once the consumer is done.
func (s *Subscription) Close() {
	s.m.mu.Lock()
	defer s.m.mu.Unlock()
	s.drop()
}

// Attach is the result of Subscribe: the live subscription plus the backlog
// the consumer must apply before reading from Sub.C. When Snapshot is false,
// Backlog replays the deltas after the presented token. When Snapshot is
// true, the token predates ring retention: the consumer discards its local
// state and Backlog carries one GroupCreated per current group (a full state
// image), all stamped Seq — its new baseline token.
type Attach struct {
	Sub      *Subscription
	Backlog  []Delta
	Seq      uint64
	Snapshot bool
}

// Subscribe attaches a consumer to the named view, resuming after token. buf
// is the live-channel depth (0 = default). Registration and backlog capture
// are atomic under the manager lock, so the backlog plus the channel contain
// every delta after the token exactly once.
func (m *Manager) Subscribe(name string, token uint64, buf int) (*Attach, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("stream: unknown materialized view %q", name)
	}
	if v.err != nil {
		return nil, fmt.Errorf("stream: view %s is broken: %v", name, v.err)
	}
	if buf <= 0 {
		buf = defaultSubBuf
	}
	sub := &Subscription{View: v.name, C: make(chan Delta, buf), m: m, v: v}
	at := &Attach{Sub: sub}
	if token >= v.floor {
		at.Seq = token
		for _, d := range v.ring {
			if d.Seq > token {
				at.Backlog = append(at.Backlog, d)
			}
		}
	} else {
		state, err := v.groups()
		if err != nil {
			return nil, fmt.Errorf("stream: view %s: %v", name, err)
		}
		at.Snapshot = true
		at.Seq = v.lastSeq
		gids := make([]int64, 0, len(state))
		for g := range state {
			gids = append(gids, g)
		}
		sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
		for _, g := range gids {
			at.Backlog = append(at.Backlog, Delta{
				View:    v.name,
				Seq:     v.lastSeq,
				Kind:    GroupCreated,
				Group:   g,
				Members: state[g],
			})
		}
	}
	v.subs[sub] = struct{}{}
	m.metrics().Gauge("stream_subscribers").Set(float64(m.subscriberCount()))
	return at, nil
}

// subscriberCount totals attached subscriptions across views (lock held).
func (m *Manager) subscriberCount() int {
	n := 0
	for _, v := range m.views {
		n += len(v.subs)
	}
	return n
}

// ViewStatus is the introspection record /debug/views serves per view.
type ViewStatus struct {
	Name             string  `json:"name"`
	Table            string  `json:"table"`
	Mode             string  `json:"mode"`
	Metric           string  `json:"metric"`
	Eps              float64 `json:"eps"`
	Groups           int     `json:"groups"`
	Members          int     `json:"members"`
	AppliedRows      int     `json:"applied_rows"`
	LastSeq          uint64  `json:"last_seq"`
	LastWALSeq       uint64  `json:"last_wal_seq"`
	DeltasTotal      uint64  `json:"deltas_total"`
	DeltaRatePerSec  float64 `json:"delta_rate_per_sec"`
	StalenessSeconds float64 `json:"staleness_seconds"`
	Rebuilds         uint64  `json:"rebuilds"`
	Subscribers      int     `json:"subscribers"`
	RingLen          int     `json:"ring_len"`
	Error            string  `json:"error,omitempty"`
}

// Views reports every view's live status, sorted by name.
func (m *Manager) Views() []ViewStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ViewStatus, 0, len(m.views))
	now := time.Now()
	for _, v := range m.views {
		state, err := v.groups()
		members := 0
		for _, ms := range state {
			members += len(ms)
		}
		mode := "all"
		if v.mode == engine.SGBAnyMode {
			mode = "any"
		}
		st := ViewStatus{
			Name:            v.name,
			Table:           v.shape.Table,
			Mode:            mode,
			Metric:          v.shape.Spec.Metric.String(),
			Eps:             v.shape.Spec.Eps,
			Groups:          len(state),
			Members:         members,
			AppliedRows:     v.applied,
			LastSeq:         v.lastSeq,
			LastWALSeq:      StmtSeq(v.lastSeq),
			DeltasTotal:     v.deltas,
			DeltaRatePerSec: v.rateEWMA,
			Rebuilds:        v.rebuilds,
			Subscribers:     len(v.subs),
			RingLen:         len(v.ring),
		}
		if v.lastApplyNS != 0 {
			st.StalenessSeconds = now.Sub(time.Unix(0, v.lastApplyNS)).Seconds()
		}
		switch {
		case v.err != nil:
			st.Error = v.err.Error()
		case err != nil:
			st.Error = err.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// State returns a view's current group state, freshly materialized from its
// grouper (tests and the snapshot path of reconnects).
func (m *Manager) State(name string) (map[int64][]int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("stream: unknown materialized view %q", name)
	}
	if v.err != nil {
		return nil, fmt.Errorf("stream: view %s is broken: %v", name, v.err)
	}
	return v.groups()
}
