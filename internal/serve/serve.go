// Package serve is the long-lived profiling service behind the
// drgpum-serve daemon: DrGPUM as the paper means it to be used —
// something a developer iterates against — rather than a one-shot CLI.
//
// The design splits a service core from request handling, following the
// command-processor shape of the mgpusim driver: the Server owns the
// session lifecycle and the bounded store; the HTTP layer (http.go) only
// parses, validates and renders. Three properties carry over from the
// rest of the module:
//
//   - One engine, many tenants. Every session submits its RunSpec batch
//     to one shared engine (engine.Default() unless Config.Engine says
//     otherwise), so the singleflight profile cache is the cross-tenant
//     cache: two sessions profiling the same configuration share one
//     execution, and the per-batch Stats delta (engine.RunWithStats)
//     attributes the reuse to each submission.
//   - Bounded residency. Sessions live in an LRU store with a capacity
//     bound enforced on every insert and an idle-TTL sweep, so the
//     resident set stays bounded no matter how many sessions are ever
//     submitted. Evicted sessions answer 410 Gone (the ID is recognized
//     as issued), unknown IDs answer 404.
//   - Determinism over the wire. A report fetched over HTTP is rendered
//     by the same core exporter registry as the offline CLIs, from a
//     report produced by the same engine body, so the bytes are
//     identical to the offline pipeline for every registered format
//     (pinned by the contract tests).
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"drgpum/internal/engine"
	"drgpum/internal/obs"

	// Register the GUI and HTML exporters so the report endpoint serves
	// every format the offline CLIs can write.
	_ "drgpum/internal/gui"
)

// Defaults for Config's zero values.
const (
	// DefaultCapacity bounds resident sessions when Config.Capacity is
	// unset.
	DefaultCapacity = 64
	// DefaultTTL retires sessions idle longer than this when Config.TTL
	// is unset.
	DefaultTTL = 15 * time.Minute
)

// Config tunes a Server.
type Config struct {
	// Engine executes session batches; nil means engine.Default(), the
	// process-wide engine, whose memoized singleflight cache then serves
	// as the cross-session profile cache.
	Engine *engine.Engine
	// Obs is the server's master self-observability recorder (serve
	// counters plus merged per-session snapshots); nil means a fresh
	// enabled recorder.
	Obs *obs.Recorder
	// Capacity bounds resident sessions; <= 0 means DefaultCapacity.
	Capacity int
	// TTL is the idle lifetime a session survives between touches before
	// SweepExpired retires it; <= 0 means DefaultTTL.
	TTL time.Duration
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Server is the service core: it owns the session store and the engine
// handle, and runs each session's batch on its own goroutine. Construct
// with New; the zero value is not usable.
type Server struct {
	eng *engine.Engine
	rec *obs.Recorder
	now func() time.Time
	st  *store

	// wg tracks in-flight session bodies so shutdown can drain them.
	wg sync.WaitGroup

	done   atomic.Uint64 // sessions finished in StateDone
	failed atomic.Uint64 // sessions finished in StateFailed
}

// New returns a ready Server.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = engine.Default()
	}
	rec := cfg.Obs
	if rec == nil {
		rec = obs.New()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Server{
		eng: eng,
		rec: rec,
		now: now,
		st:  newStore(capacity, ttl, now, rec),
	}
}

// submit stores a new session and starts its batch. The returned session
// already has its ID.
func (s *Server) submit(specs []engine.RunSpec) *Session {
	sess := &Session{
		state:   StatePending,
		specs:   specs,
		created: s.now(),
		rec:     obs.New(),
		done:    make(chan struct{}),
	}
	sess.rec.AddNamed(obs.NamedServeRuns, uint64(len(specs)))
	s.st.add(sess)
	s.rec.AddNamed(obs.NamedServeSessions, 1)
	s.launch(sess)
	return sess
}

// launch runs the session body on its own goroutine: the whole batch
// goes to the shared engine, the per-batch stats delta and results land
// on the session, and the session's recorder is folded into the server's
// master recorder once the batch finishes.
func (s *Server) launch(sess *Session) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.mu.Lock()
		sess.state = StateRunning
		sess.mu.Unlock()

		sp := sess.rec.Root().Child("serve").Child("session").Start()
		results, stats, err := s.eng.RunWithStats(sess.specs)
		sp.End()

		sess.mu.Lock()
		sess.results = results
		sess.stats = stats
		if err != nil {
			sess.state = StateFailed
			sess.errMsg = err.Error()
		} else {
			sess.state = StateDone
		}
		sess.finished = s.now()
		sess.mu.Unlock()

		if err != nil {
			s.failed.Add(1)
			s.rec.AddNamed(obs.NamedServeFailed, 1)
		} else {
			s.done.Add(1)
		}
		s.rec.Merge(sess.rec.Snapshot())
		close(sess.done)
	}()
}

// SweepExpired retires every session idle longer than the TTL and
// returns how many it removed. The daemon calls it on a timer; tests and
// the stress harness call it directly.
func (s *Server) SweepExpired() int { return s.st.sweep() }

// Drain blocks until every in-flight session body has finished. It does
// not stop new submissions; the caller shuts the HTTP listener first.
func (s *Server) Drain() { s.wg.Wait() }

// Summary is a point-in-time account of the server, rendered by the
// metrics endpoint and the daemon's shutdown line.
type Summary struct {
	// Issued counts every session ever submitted; Resident the ones
	// still in the store (Resident never exceeds the capacity bound).
	Issued   uint64
	Resident int
	// Done and Failed count finished session bodies.
	Done   uint64
	Failed uint64
	// EvictedLRU and EvictedTTL count store retirements by cause.
	EvictedLRU uint64
	EvictedTTL uint64
}

// Summary returns the current account.
func (s *Server) Summary() Summary {
	issued, resident, lru, ttl := s.st.counts()
	return Summary{
		Issued:     issued,
		Resident:   resident,
		Done:       s.done.Load(),
		Failed:     s.failed.Load(),
		EvictedLRU: lru,
		EvictedTTL: ttl,
	}
}
