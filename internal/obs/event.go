package obs

import "time"

// Event is one timestamped step in a traced lifecycle — a span event in
// the tracing sense: cheap, append-only, and meaningful after the fact.
// The serving layer keeps one log of them per job (queued → running →
// per-point progress → terminal) and persists it into job.json, so a
// stuck or slow job can be diagnosed from its artifacts alone.
type Event struct {
	// Seq is the event's position in its job's whole history: 1, 2,
	// 3, … in publish order and never reused, even after the bounded
	// log drops old events. The serving layer uses it as the SSE event
	// id and as the /events?after incremental cursor, so a client can
	// resume exactly where it left off.
	Seq  uint64    `json:"seq,omitempty"`
	Time time.Time `json:"time"`
	// Name is the step ("queued", "running", "point-start", "point",
	// "done", "failed", "cancelled", ...).
	Name string `json:"name"`
	// Detail is a human-readable payload ("p007 rand-reg-n64 (3/9)").
	Detail string `json:"detail,omitempty"`
}
