package server

// hub.go keeps each job's event log and fans its events out to the
// live-stream endpoints. A job's topic is its one event log: publish
// numbers an event, logs it, renders its wire frames and delivers it —
// to the job's topic for /v1/jobs/{id}/stream, then to the all-jobs
// watch topic for /v1/watch (the neo-server api/watch.go subscription
// shape) — all under the job topic's lock, so /stream, /v1/watch,
// /events and job.json carry a job's events in one order, the seq order.
//
// The policy throughout is that observers must never slow the observed:
// publishes are non-blocking, each subscriber owns a bounded buffer,
// and a subscriber that stops reading has its *oldest* buffered events
// dropped to make room (drop-slowest) while the job and every other
// subscriber proceed at full speed. Drops are counted per subscriber
// and exported as metric families, so a falling-behind client is a
// graph, not a mystery.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cobrawalk/internal/obs"
)

// StreamEvent is one entry of a job's event log. Seq numbers the job's
// events 1, 2, 3, … in publish order and is never reused; it is the SSE
// event id and the /v1/jobs/{id}/events?after cursor alike, so
// Last-Event-ID reconnects and ?after polls resume from the same
// position.
type StreamEvent struct {
	Seq uint64 `json:"seq"`
	Job string `json:"job"`
	// Type names the event: lifecycle states ("queued", "running",
	// "recovered", "done", "failed", "cancelled", "cancel-requested"),
	// per-point progress ("point-start", "point"), mid-ensemble digest
	// snapshots ("snapshot") and completed quantile bands ("band").
	Type string `json:"type"`
	// Data is the JSON payload: a Status for lifecycle events, a
	// pointProgress, a snapshotEvent, or a trajectoryBand line. Only
	// the replay window keeps it.
	Data json.RawMessage `json:"data,omitempty"`

	// time and detail complete the entry's obs.Event form, listed at
	// /events and persisted in job.json; the stream envelope omits them.
	time   time.Time
	detail string
	// frame / watchFrame are the pre-rendered SSE wire frames, built
	// once at publish time and shared by every subscriber's write — at
	// 10k subscribers the fan-out cost is 10k copies of one buffer, not
	// 10k encodings.
	frame      []byte
	watchFrame []byte
}

const (
	// streamBuffer is each subscriber's buffered-event capacity; a
	// subscriber that falls behind has its oldest buffered events
	// dropped rather than stalling the job or other subscribers.
	streamBuffer = 64
	// logWindow is the replay window: the last logWindow events of a
	// job's log keep their payloads and frames, and a stream subscriber
	// replays them. An event leaving the window keeps only its seq,
	// time, type and detail, so a job holds at most logWindow payloads.
	logWindow = 64
	// logHead is how many of a job's first events the log keeps ahead
	// of the window, so a long job still lists its lifecycle head
	// (queued, running, the first points) at /events and in job.json.
	logHead = 192
)

// subscriber is one attached stream reader: a bounded channel plus its
// drop count (guarded by the owning topic's mu).
type subscriber struct {
	ch      chan StreamEvent
	dropped uint64
}

// topic is one broadcast domain: a job's event log and its stream, or
// the global watch, which logs nothing.
type topic struct {
	mu   sync.Mutex
	subs map[*subscriber]struct{}
	// seq is the last number handed out. log holds the first logHead
	// events and the last logWindow, in seq order.
	seq    uint64
	log    []StreamEvent
	closed bool
}

func newTopic() *topic { return &topic{subs: make(map[*subscriber]struct{})} }

// hub owns the topic set. Counters are shared with serverMetrics.
type hub struct {
	buffer  int
	dropped *obs.Counter
	slow    *obs.Counter

	mu     sync.Mutex
	topics map[string]*topic
	watch  *topic
	count  atomic.Int64 // currently attached subscribers, all topics
}

func newHub(buffer int, dropped, slow *obs.Counter) *hub {
	return &hub{
		buffer:  buffer,
		dropped: dropped,
		slow:    slow,
		topics:  make(map[string]*topic),
		watch:   newTopic(),
	}
}

// subscribers reports the currently attached subscriber count (the
// cobrawalkd_stream_subscribers gauge).
func (h *hub) subscribers() int64 { return h.count.Load() }

// topic returns (creating if needed) the job's broadcast topic.
func (h *hub) topic(job string) *topic {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.topics[job]
	if !ok {
		t = newTopic()
		h.topics[job] = t
	}
	return t
}

// publish numbers, logs, renders and delivers one job event: to the
// job's subscribers, then to every watch subscriber. All of it runs
// under the job topic's lock, taken before the watch topic's (nothing
// takes the two the other way), so every reader sees a job's events in
// seq order even when several goroutines publish at once. data is the
// stream payload (nil = empty object); detail is the /events text.
func (h *hub) publish(job, name, detail string, data json.RawMessage) {
	t := h.topic(job)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev := StreamEvent{Seq: t.seq, Job: job, Type: name, Data: data, time: time.Now().UTC(), detail: detail}
	ev.frame = renderSSE(ev, false)
	ev.watchFrame = renderSSE(ev, true)
	t.append(ev)
	for s := range t.subs {
		t.send(s, ev, h)
	}
	h.watch.mu.Lock()
	defer h.watch.mu.Unlock()
	for s := range h.watch.subs {
		h.watch.send(s, ev, h)
	}
}

// append logs ev. A full log makes room by dropping the oldest window
// event, so the head stays and the window slides; the event that
// leaves the window drops its payload and frames.
func (t *topic) append(ev StreamEvent) {
	if len(t.log) == logHead+logWindow {
		copy(t.log[logHead:], t.log[logHead+1:])
		t.log[len(t.log)-1] = ev
	} else {
		t.log = append(t.log, ev)
	}
	if n := len(t.log); n > logWindow {
		old := &t.log[n-logWindow-1]
		old.Data, old.frame, old.watchFrame = nil, nil, nil
	}
}

// send delivers ev without ever blocking: when the subscriber's buffer
// is full, its oldest buffered event is dropped to make room — the
// drop-slowest policy. Every send runs under t.mu and only publishers
// send on s.ch, so after one drain a retried send cannot fail again;
// the loop terminates in at most two rounds.
func (t *topic) send(s *subscriber, ev StreamEvent, h *hub) {
	for {
		select {
		case s.ch <- ev:
			return
		default:
		}
		select {
		case <-s.ch:
			if s.dropped == 0 && h.slow != nil {
				h.slow.Inc()
			}
			s.dropped++
			if h.dropped != nil {
				h.dropped.Inc()
			}
		default:
			// The reader consumed between our failed send and the
			// drain; the retry will land.
		}
	}
}

// events lists the job's logged events with Seq > after, in seq order:
// the /events?after response and job.json's Events.
func (h *hub) events(job string, after uint64) []obs.Event {
	t := h.topic(job)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]obs.Event, 0, len(t.log))
	for _, ev := range t.log {
		if ev.Seq > after {
			out = append(out, obs.Event{Seq: ev.Seq, Time: ev.time, Name: ev.Type, Detail: ev.detail})
		}
	}
	return out
}

// seed loads a restored job's persisted events into its log before
// anything publishes there. Numbering resumes past the largest
// persisted seq, so cursors handed out before a restart stay valid;
// events persisted without a seq (records older than seqs) take the
// next numbers in order. Seeded events have no payload: their frames
// render with data {}.
func (h *hub) seed(job string, events []obs.Event) {
	t := h.topic(job)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ev := range events {
		if ev.Seq == 0 {
			ev.Seq = t.seq + 1
		}
		t.seq = max(t.seq, ev.Seq)
		t.append(StreamEvent{Seq: ev.Seq, Job: job, Type: ev.Name, time: ev.Time, detail: ev.Detail})
	}
}

// subscribe attaches a reader to job's topic: it returns the replay
// window's events with Seq > after (the Last-Event-ID replay), a
// channel of subsequent events, and a cancel func the caller must
// invoke when done. On a sealed topic — the job settled — the replay
// comes with an already-closed channel, so a late subscriber gets the
// window and an immediate end-of-stream.
func (h *hub) subscribe(job string, after uint64) ([]StreamEvent, <-chan StreamEvent, func()) {
	return h.subscribeTopic(h.topic(job), after)
}

func (h *hub) subscribeTopic(t *topic, after uint64) ([]StreamEvent, <-chan StreamEvent, func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var replay []StreamEvent
	for _, ev := range t.log[max(0, len(t.log)-logWindow):] {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	if t.closed {
		done := make(chan StreamEvent)
		close(done)
		return replay, done, func() {}
	}
	s := &subscriber{ch: make(chan StreamEvent, h.buffer)}
	t.subs[s] = struct{}{}
	h.count.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			t.mu.Lock()
			defer t.mu.Unlock()
			if _, ok := t.subs[s]; ok {
				delete(t.subs, s)
				h.count.Add(-1)
			}
		})
	}
	return replay, s.ch, cancel
}

// close seals a job's topic: subscriber channels close (ending their
// SSE streams cleanly) while the log stays for late subscribers. A job
// that settles seals its topic after publishing its terminal event;
// restore seals a job it loads settled. Idempotent.
func (h *hub) close(job string) { h.topic(job).close(h) }

func (t *topic) close(h *hub) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	for s := range t.subs {
		close(s.ch)
		delete(t.subs, s)
		h.count.Add(-1)
	}
}

// closeAll seals every topic — manager shutdown. In-flight SSE
// handlers observe their channels closing and return promptly.
func (h *hub) closeAll() {
	h.mu.Lock()
	topics := make([]*topic, 0, len(h.topics)+1)
	for _, t := range h.topics {
		topics = append(topics, t)
	}
	topics = append(topics, h.watch)
	h.mu.Unlock()
	for _, t := range topics {
		t.close(h)
	}
}

// renderSSE renders an event's SSE wire frame. Per-job frames carry the
// bare payload under the job-local seq as event id; watch frames carry
// the full envelope (watch clients need job attribution) under a
// job-qualified id. JSON escapes newlines inside strings, so the data
// field is always a single `data:` line.
func renderSSE(ev StreamEvent, watch bool) []byte {
	var b bytes.Buffer
	if watch {
		fmt.Fprintf(&b, "id: %s:%d\nevent: %s\ndata: ", ev.Job, ev.Seq, ev.Type)
		blob, _ := json.Marshal(ev)
		b.Write(blob)
	} else {
		fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: ", ev.Seq, ev.Type)
		if len(ev.Data) == 0 {
			b.WriteString("{}")
		} else {
			b.Write(ev.Data)
		}
	}
	b.WriteString("\n\n")
	return b.Bytes()
}
