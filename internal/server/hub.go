package server

// hub.go is the fan-out layer behind the live-stream endpoints: every
// job lifecycle event, mid-ensemble snapshot and completed band is
// published once and broadcast to any number of SSE subscribers — a
// per-job topic for /v1/jobs/{id}/stream plus one all-jobs watch topic
// for /v1/watch (the neo-server api/watch.go subscription shape).
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

	"cobrawalk/internal/obs"
)

// StreamEvent is one event on a job's live stream. Seq is the job's
// trace sequence number — the same cursor space as /v1/jobs/{id}/events
// — and is rendered as the SSE event id, so Last-Event-ID reconnects
// and ?after polls resume from the same position.
type StreamEvent struct {
	Seq uint64 `json:"seq"`
	Job string `json:"job"`
	// Type names the event: lifecycle states ("queued", "running",
	// "recovered", "done", "failed", "cancelled", "cancel-requested"),
	// per-point progress ("point-start", "point"), mid-ensemble digest
	// snapshots ("snapshot") and completed quantile bands ("band").
	Type string `json:"type"`
	// Data is the JSON payload: a Status for lifecycle events, a
	// pointProgress, a snapshotEvent, or a trajectoryBand line.
	Data json.RawMessage `json:"data,omitempty"`

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
	// streamHistoryCap bounds each job topic's retained history — the
	// replay window for Last-Event-ID reconnects and late subscribers.
	streamHistoryCap = 64
)

// subscriber is one attached stream reader: a bounded channel plus its
// drop count (guarded by the owning topic's mu).
type subscriber struct {
	ch      chan StreamEvent
	dropped uint64
}

// topic is one broadcast domain: a job's stream, or the global watch.
type topic struct {
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	history []StreamEvent
	closed  bool
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

// publish renders ev's wire frames once and broadcasts it to the job's
// subscribers and to every watch subscriber.
func (h *hub) publish(ev StreamEvent) {
	ev.frame = renderSSE(ev, false)
	ev.watchFrame = renderSSE(ev, true)
	h.topic(ev.Job).publish(ev, h, true)
	h.watch.publish(ev, h, false)
}

func (t *topic) publish(ev StreamEvent, h *hub, keepHistory bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	if keepHistory {
		if len(t.history) >= streamHistoryCap {
			copy(t.history, t.history[1:])
			t.history = t.history[:len(t.history)-1]
		}
		t.history = append(t.history, ev)
	}
	for s := range t.subs {
		t.send(s, ev, h)
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

// subscribe attaches a reader to job's topic: it returns the retained
// history with Seq > after (the Last-Event-ID replay), a channel of
// subsequent events, and a cancel func the caller must invoke when
// done. On an already-closed topic — the job settled — the replay is
// returned with an already-closed channel, so late subscribers get the
// full retained history and an immediate end-of-stream.
func (h *hub) subscribe(job string, after uint64) ([]StreamEvent, <-chan StreamEvent, func()) {
	return h.subscribeTopic(h.topic(job), after)
}

func (h *hub) subscribeTopic(t *topic, after uint64) ([]StreamEvent, <-chan StreamEvent, func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var replay []StreamEvent
	for _, ev := range t.history {
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

// close seals a job's topic after its terminal event: subscriber
// channels close (ending their SSE streams cleanly) while the retained
// history stays for late subscribers. Idempotent.
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

// ensureClosed makes a terminal job's topic servable even when this
// process never published to it (a job restored from disk already
// terminal): an empty topic gets the synthesised terminal event as its
// whole history, then seals. Idempotent.
func (h *hub) ensureClosed(job string, terminal StreamEvent) {
	t := h.topic(job)
	t.mu.Lock()
	if !t.closed && len(t.history) == 0 && terminal.Type != "" {
		terminal.frame = renderSSE(terminal, false)
		terminal.watchFrame = renderSSE(terminal, true)
		t.history = append(t.history, terminal)
	}
	t.mu.Unlock()
	t.close(h)
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
