package serve

import (
	"sync"
	"time"

	"drgpum/internal/engine"
	"drgpum/internal/obs"
)

// State is a session's position in its lifecycle. Transitions are
// strictly forward: pending → running → done|failed.
type State uint8

const (
	// StatePending is the window between submission and the session
	// goroutine picking the batch up.
	StatePending State = iota
	// StateRunning means the batch is executing on the engine.
	StateRunning
	// StateDone means every run finished and reports are fetchable.
	StateDone
	// StateFailed means at least one run returned an error; the status
	// endpoint carries the first error and every per-run error.
	StateFailed
)

// String names the state (the JSON "state" field).
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Session is one submitted RunSpec batch and everything the API serves
// about it. The mutex guards the mutable fields; the session goroutine
// writes them exactly once at each transition, handlers only read.
type Session struct {
	// ID is the canonical "s-<n>" form; num is n. Both are assigned by
	// the store at insertion and immutable afterwards.
	ID  string
	num uint64

	mu       sync.Mutex
	state    State
	specs    []engine.RunSpec
	results  []engine.Result
	stats    engine.Stats // per-batch delta from engine.RunWithStats
	errMsg   string       // first error when state == StateFailed
	created  time.Time
	finished time.Time

	// rec is the per-session observability recorder: the serve/session
	// span plus the serve/runs counter, exposed in the status response
	// and merged into the server's master recorder at completion.
	rec *obs.Recorder

	// done closes when the session goroutine finishes (drain and tests
	// wait on it).
	done chan struct{}
}
