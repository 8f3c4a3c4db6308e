package server

// stream_test.go covers the live-observability layer: the fan-out hub's
// drop-slowest policy, the SSE endpoints (replay, Last-Event-ID resume,
// the watch firehose, byte-identity of streamed bands against the
// polled artifact), the ?after incremental event cursor, and the
// spec-hash ETag / dedup-read-cache behaviour of completed reads.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cobrawalk/internal/obs"
)

func testHub(buffer int) (*hub, *obs.Counter, *obs.Counter) {
	reg := obs.NewRegistry()
	dropped := reg.Counter("dropped_total", "t")
	slow := reg.Counter("slow_total", "t")
	return newHub(buffer, dropped, slow), dropped, slow
}

// TestHubDropSlowest pins the core fan-out guarantee: a subscriber that
// stops reading loses its *oldest* buffered events — exactly as many as
// overflowed — while the publisher never blocks and a keeping-up
// subscriber sees every event.
func TestHubDropSlowest(t *testing.T) {
	h, dropped, slow := testHub(4)

	_, slowCh, cancelSlow := h.subscribe("job", 0)
	defer cancelSlow()
	_, fastCh, cancelFast := h.subscribe("job", 0)
	defer cancelFast()

	// Publish more than the buffer holds without either reader running.
	// publish is synchronous, so returning at all proves the slow
	// subscriber did not stall the publisher.
	const total = 10
	for i := 1; i <= total; i++ {
		h.publish("job", "tick", "", nil)
	}

	// The fast subscriber also has buffer 4 and wasn't reading, so both
	// dropped total-4 events; what remains is the newest 4, in order.
	wantDropped := uint64(2 * (total - 4))
	if got := dropped.Value(); got != wantDropped {
		t.Fatalf("dropped counter = %d, want %d", got, wantDropped)
	}
	if got := slow.Value(); got != 2 {
		t.Fatalf("slow-client counter = %d, want 2 (each subscriber counted once)", got)
	}
	for _, ch := range []<-chan StreamEvent{slowCh, fastCh} {
		for want := uint64(total - 3); want <= total; want++ {
			ev := <-ch
			if ev.Seq != want {
				t.Fatalf("buffered seq = %d, want %d (drop-oldest order)", ev.Seq, want)
			}
		}
		select {
		case ev := <-ch:
			t.Fatalf("unexpected extra buffered event %+v", ev)
		default:
		}
	}

	// A subscriber that keeps up drops nothing more. publish is
	// synchronous, so reading in lockstep guarantees the fast buffer
	// never overflows, while the idle one — drained above, so 4 slots
	// free — absorbs 4 then drops the remaining 16.
	before := dropped.Value()
	for i := total + 1; i <= total+20; i++ {
		h.publish("job", "tick", "", nil)
		if ev := <-fastCh; ev.Seq != uint64(i) {
			t.Fatalf("keeping-up subscriber saw seq %d, want %d", ev.Seq, i)
		}
	}
	if got := dropped.Value() - before; got != 16 {
		t.Fatalf("dropped while one subscriber kept up = %d, want 16 (idle subscriber only)", got)
	}
	if got := slow.Value(); got != 2 {
		t.Fatalf("slow-client counter grew to %d; keeping-up subscriber miscounted", got)
	}
}

// TestHubCloseAndReplay pins topic sealing: subscribers' channels close
// after the terminal event, late subscribers get the retained history
// with an immediately-closed channel, and Last-Event-ID style cursors
// trim the replay.
func TestHubCloseAndReplay(t *testing.T) {
	h, _, _ := testHub(8)
	_, ch, cancel := h.subscribe("job", 0)
	defer cancel()

	for i := 1; i <= 5; i++ {
		h.publish("job", "tick", "", nil)
	}
	h.close("job")

	var got []uint64
	for ev := range ch {
		got = append(got, ev.Seq)
	}
	if len(got) != 5 {
		t.Fatalf("live subscriber saw %v, want seqs 1..5 then close", got)
	}

	replay, late, lateCancel := h.subscribe("job", 2)
	defer lateCancel()
	if len(replay) != 3 || replay[0].Seq != 3 {
		t.Fatalf("late replay after cursor 2 = %+v, want seqs 3..5", replay)
	}
	if _, open := <-late; open {
		t.Fatal("late subscriber's channel should be pre-closed on a sealed topic")
	}
	if h.subscribers() != 0 {
		t.Fatalf("subscriber gauge = %d after close, want 0", h.subscribers())
	}
}

// streamTypes returns the types of a subscription's replayed events and
// of everything its channel delivers until it closes.
func streamTypes(t *testing.T, replay []StreamEvent, ch <-chan StreamEvent) []string {
	t.Helper()
	var types []string
	for _, ev := range replay {
		types = append(types, ev.Type)
	}
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return types
			}
			types = append(types, ev.Type)
		case <-timeout:
			t.Fatalf("stream still open after %v", types)
		}
	}
}

// TestSubscribeInSettleWindow replays a job that reads done before its
// terminal event is out and its topic sealed, around a Subscribe. The
// subscriber must still receive done, then a closed channel: Subscribe
// never seals a topic.
func TestSubscribeInSettleWindow(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	j := m.newJob(Record{ID: "j0001", State: StateRunning}, t.TempDir())
	m.mu.Lock()
	m.jobs[j.rec.ID] = j
	m.mu.Unlock()
	m.event(j, string(StateRunning), "", nil)

	m.mu.Lock()
	j.rec.State = StateDone
	m.mu.Unlock()
	replay, ch, cancel, err := m.Subscribe(j.rec.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	m.event(j, string(StateDone), "", m.snapshot(j))
	m.hub.close(j.rec.ID)

	if got := streamTypes(t, replay, ch); !slices.Equal(got, []string{"running", "done"}) {
		t.Fatalf("stream = %v, want [running done]", got)
	}
}

// TestRestoredTerminalStream: a job finished by one Manager and streamed
// from a second Manager on the same directory replays the events
// persisted in its job.json, by type and seq, then a closed channel.
func TestRestoredTerminalStream(t *testing.T) {
	dir := t.TempDir()
	first, err := NewManager(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for cur, _ := first.Get(st.ID); cur.State != StateDone; cur, _ = first.Get(st.ID) {
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job settled as %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	first.Close()
	var rec Record
	if err := readJSONFile(filepath.Join(dir, jobsDirName, st.ID, jobFileName), &rec); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ev := range rec.Events {
		want = append(want, fmt.Sprintf("%d %s", ev.Seq, ev.Name))
	}
	if len(want) == 0 || rec.Events[len(rec.Events)-1].Name != string(StateDone) {
		t.Fatalf("persisted events %v do not end in done", want)
	}

	second := newTestManager(t, dir, Config{})
	replay, ch, cancel, err := second.Subscribe(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, open := <-ch; open {
		t.Fatal("a restored settled job's stream must end after its replay")
	}
	var got []string
	for _, ev := range replay {
		got = append(got, fmt.Sprintf("%d %s", ev.Seq, ev.Type))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("restored stream %v, want the persisted events %v", got, want)
	}
}

// TestStreamSeqOrder races two goroutines emitting one job's events —
// one with a 64 KiB payload — against a live job subscriber and a watch
// subscriber. Each must see strictly increasing seqs ending at the last
// event (drop-slowest may skip older ones), and /events must list
// strictly increasing seqs too.
func TestStreamSeqOrder(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{})
	j := m.newJob(Record{ID: "j0001", State: StateRunning}, t.TempDir())
	m.mu.Lock()
	m.jobs[j.rec.ID] = j
	m.mu.Unlock()
	_, jobCh, cancelJob, err := m.Subscribe(j.rec.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelJob()
	watchCh, cancelWatch := m.WatchSubscribe()
	defer cancelWatch()

	drain := func(ch <-chan StreamEvent, seqs *[]uint64, done chan<- struct{}) {
		for ev := range ch {
			*seqs = append(*seqs, ev.Seq)
		}
		close(done)
	}
	var jobSeqs, watchSeqs []uint64
	jobDone, watchDone := make(chan struct{}), make(chan struct{})
	go drain(jobCh, &jobSeqs, jobDone)
	go drain(watchCh, &watchSeqs, watchDone)

	const perEmitter = 200
	big := map[string]string{"blob": strings.Repeat("x", 64<<10)}
	var wg sync.WaitGroup
	for _, payload := range []any{big, nil} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perEmitter {
				m.event(j, "tick", "", payload)
			}
		}()
	}
	wg.Wait()
	m.Close() // seals every topic, ending both subscriptions
	<-jobDone
	<-watchDone

	events, err := m.EventsAfter(j.rec.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	logged := make([]uint64, len(events))
	for i, ev := range events {
		logged[i] = ev.Seq
	}
	for _, c := range []struct {
		name string
		seqs []uint64
	}{{"job stream", jobSeqs}, {"watch stream", watchSeqs}, {"/events", logged}} {
		if len(c.seqs) == 0 || c.seqs[len(c.seqs)-1] != 2*perEmitter {
			t.Fatalf("%s does not end at seq %d: %v", c.name, 2*perEmitter, c.seqs)
		}
		for i := 1; i < len(c.seqs); i++ {
			if c.seqs[i] <= c.seqs[i-1] {
				t.Fatalf("%s delivered seq %d after %d", c.name, c.seqs[i], c.seqs[i-1])
			}
		}
	}
}

// TestEventLogBounded pins a job log's retention: past 256 events it
// lists the first 192 and the last 64, only the last 64 (the replay
// window) keep their payloads and frames, and a subscriber replays
// exactly the window.
func TestEventLogBounded(t *testing.T) {
	h, _, _ := testHub(4)
	publish := func(from, to int) {
		for i := from; i <= to; i++ {
			h.publish("job", "tick", strconv.Itoa(i), json.RawMessage(`{"i":`+strconv.Itoa(i)+`}`))
		}
	}
	payloads := func(total int) {
		t.Helper()
		log := h.topic("job").log
		for i, ev := range log {
			kept := ev.Data != nil && ev.frame != nil && ev.watchFrame != nil
			if inWindow := i >= len(log)-logWindow; kept != inWindow {
				t.Fatalf("after %d events, seq %d (in window: %v) keeps its payload: %v", total, ev.Seq, inWindow, kept)
			}
		}
	}
	publish(1, 100)
	if got := len(h.events("job", 0)); got != 100 {
		t.Fatalf("100 events logged as %d", got)
	}
	payloads(100)

	const total = 300
	publish(101, total)
	events := h.events("job", 0)
	if len(events) != logHead+logWindow {
		t.Fatalf("log holds %d events, want %d", len(events), logHead+logWindow)
	}
	for i, ev := range events {
		want := uint64(i + 1) // the head
		if i >= logHead {
			want = uint64(total - logHead - logWindow + i + 1) // the window
		}
		if ev.Seq != want || ev.Name != "tick" || ev.Detail != strconv.FormatUint(want, 10) || ev.Time.IsZero() {
			t.Fatalf("log entry %d = %+v, want seq %d", i, ev, want)
		}
	}
	payloads(total)

	replay, _, cancel := h.subscribe("job", 0)
	cancel()
	if len(replay) != logWindow || replay[0].Seq != total-logWindow+1 {
		t.Fatalf("replay holds %d events, want the %d-event window from seq %d", len(replay), logWindow, total-logWindow+1)
	}
	for _, ev := range replay {
		if want := fmt.Sprintf(`{"i":%d}`, ev.Seq); string(ev.Data) != want {
			t.Fatalf("replayed seq %d carries %s, want %s", ev.Seq, ev.Data, want)
		}
	}
}

// TestEventLogSeqs pins the log's cursor space: ?after filters by seq,
// numbering continues past events the log dropped, and seeding a
// restored log numbers its Seq-0 events (records older than seqs) in
// order and resumes past the persisted maximum.
func TestEventLogSeqs(t *testing.T) {
	h, _, _ := testHub(4)
	const total = logHead + logWindow + 10 // seqs 193..202 are dropped
	for range total {
		h.publish("job", "tick", "", nil)
	}
	seqs := func(job string, after uint64) []uint64 {
		var out []uint64
		for _, ev := range h.events(job, after) {
			out = append(out, ev.Seq)
		}
		return out
	}
	for _, c := range []struct {
		after      uint64
		n          int
		first, end uint64
	}{
		{0, logHead + logWindow, 1, total},
		{logHead - 1, logWindow + 1, logHead, total},
		{logHead + 5, logWindow, logHead + 11, total},
		{total - 3, 3, total - 2, total},
	} {
		got := seqs("job", c.after)
		if len(got) != c.n || got[0] != c.first || got[len(got)-1] != c.end {
			t.Fatalf("after %d: %d events %v, want %d from %d to %d", c.after, len(got), got, c.n, c.first, c.end)
		}
	}
	if got := seqs("job", total); len(got) != 0 {
		t.Fatalf("after the last seq: %v, want none", got)
	}
	h.publish("job", "tick", "", nil)
	if got := seqs("job", total); !slices.Equal(got, []uint64{total + 1}) {
		t.Fatalf("next publish got %v, want seq %d", got, total+1)
	}

	h.seed("restored", []obs.Event{{Name: "queued"}, {Name: "running"}, {Seq: 7, Name: "point"}, {Name: "done"}})
	h.publish("restored", "recovered", "", nil)
	if got, want := seqs("restored", 0), []uint64{1, 2, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("seeded log seqs %v, want %v", got, want)
	}
	replay, _, cancel := h.subscribe("restored", 7)
	cancel()
	if len(replay) != 2 {
		t.Fatalf("replay after 7 = %+v, want done and recovered", replay)
	}
	if got, want := string(renderSSE(replay[0], false)), "id: 8\nevent: done\ndata: {}\n\n"; got != want {
		t.Fatalf("seeded event renders %q, want %q", got, want)
	}
}

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	ID   string
	Type string
	Data string
}

// readSSE parses frames off an event-stream body until it ends or stop
// returns true for a frame.
func readSSE(t *testing.T, r io.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Type != "" || cur.Data != "" {
				events = append(events, cur)
				if stop != nil && stop(cur) {
					return events
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		default:
			t.Fatalf("unparseable SSE line %q", line)
		}
	}
	return events
}

// streamJob opens the job's SSE stream and reads it to end-of-stream.
func streamJob(t *testing.T, base, id string, hdr map[string]string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("stream cache-control %q", cc)
	}
	return readSSE(t, resp.Body, nil)
}

// TestSSEStreamGolden is the end-to-end pin for live streaming: a
// subscriber attached for the job's whole life sees the lifecycle in
// order with at least one mid-ensemble snapshot before the terminal
// event, and the concatenated band event payloads are byte-identical to
// the polled /trajectories NDJSON — watching live loses nothing over
// polling after the fact.
func TestSSEStreamGolden(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{
		TrialWorkers:     2,
		SnapshotInterval: time.Nanosecond, // every fold delivers
	})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	specBlob, err := json.Marshal(trajectorySpec())
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}

	// Subscribe immediately: the replay covers anything already
	// published, the live channel the rest.
	events := streamJob(t, ts.URL, st.ID, nil)

	var kinds []string
	var snapshots, bands int
	var bandData bytes.Buffer
	lastSeq := uint64(0)
	for _, ev := range events {
		kinds = append(kinds, ev.Type)
		var seq uint64
		if _, err := fmt.Sscanf(ev.ID, "%d", &seq); err != nil {
			t.Fatalf("event id %q is not a sequence number", ev.ID)
		}
		if seq <= lastSeq {
			t.Fatalf("event ids not strictly increasing: %d after %d", seq, lastSeq)
		}
		lastSeq = seq
		switch ev.Type {
		case "snapshot":
			snapshots++
			var snap struct {
				Point  string `json:"point"`
				Trials int    `json:"trials"`
				Total  int    `json:"total"`
			}
			if err := json.Unmarshal([]byte(ev.Data), &snap); err != nil {
				t.Fatalf("snapshot payload %q: %v", ev.Data, err)
			}
			if snap.Point == "" || snap.Trials < 1 || snap.Trials > snap.Total {
				t.Fatalf("implausible snapshot payload %q", ev.Data)
			}
		case "band":
			bands++
			bandData.WriteString(ev.Data)
			bandData.WriteByte('\n')
		}
	}
	seq := strings.Join(kinds, ",")
	if !strings.HasPrefix(seq, "queued,running,") || !strings.HasSuffix(seq, ",done") {
		t.Fatalf("stream lifecycle out of order: %s", seq)
	}
	if snapshots == 0 {
		t.Fatalf("no snapshot events before terminal; stream was %s", seq)
	}
	// trajectorySpec: 2 points × 2 trajectory metrics.
	if bands != 4 {
		t.Fatalf("got %d band events, want 4 (stream was %s)", bands, seq)
	}

	// Byte-identity: streamed bands concatenate to the polled artifact.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	polled, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bandData.Bytes(), polled) {
		t.Fatalf("streamed band bytes differ from polled /trajectories:\nstream: %q\npolled: %q",
			bandData.Bytes(), polled)
	}

	// Last-Event-ID resume: replaying from a mid-stream cursor returns
	// only the retained events past it, under the same ids.
	cursor := events[2].ID // some event well before the terminal one
	resumed := streamJob(t, ts.URL, st.ID, map[string]string{"Last-Event-ID": cursor})
	if len(resumed) == 0 || len(resumed) >= len(events) {
		t.Fatalf("resume from %s replayed %d events, want a strict tail of %d", cursor, len(resumed), len(events))
	}
	if got, want := resumed[0].ID, events[3].ID; got != want {
		t.Fatalf("resume from %s starts at id %s, want %s", cursor, got, want)
	}
	if resumed[len(resumed)-1].Type != "done" {
		t.Fatalf("resumed stream does not end terminal: %+v", resumed[len(resumed)-1])
	}
}

// TestSSEAfterQueryCursor pins the ?after= spelling of stream resume.
func TestSSEAfterQueryCursor(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{SnapshotInterval: time.Hour})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	specBlob, _ := json.Marshal(smokeSpec())
	var st Status
	httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st)
	pollUntil(t, ts.URL, st.ID, terminal)

	full := streamJob(t, ts.URL, st.ID, nil)
	if len(full) < 3 {
		t.Fatalf("terminal replay too short: %+v", full)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream?after=" + full[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	tail := readSSE(t, resp.Body, nil)
	if len(tail) != len(full)-1 || tail[0].ID != full[1].ID {
		t.Fatalf("?after=%s returned %d events starting %q, want %d starting %q",
			full[0].ID, len(tail), tail[0].ID, len(full)-1, full[1].ID)
	}
}

// TestWatchFirehose pins /v1/watch: events from any job arrive with job
// attribution in the envelope and job-qualified event ids.
func TestWatchFirehose(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{SnapshotInterval: time.Hour})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	specBlob, _ := json.Marshal(smokeSpec())
	var st Status
	if code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d", code)
	}

	events := readSSE(t, resp.Body, func(ev sseEvent) bool { return ev.Type == "done" })
	if len(events) == 0 || events[len(events)-1].Type != "done" {
		t.Fatalf("watch stream never delivered the terminal event: %+v", events)
	}
	for _, ev := range events {
		if !strings.HasPrefix(ev.ID, st.ID+":") {
			t.Fatalf("watch event id %q lacks job-qualified prefix %q", ev.ID, st.ID+":")
		}
		var envelope StreamEvent
		if err := json.Unmarshal([]byte(ev.Data), &envelope); err != nil {
			t.Fatalf("watch envelope %q: %v", ev.Data, err)
		}
		if envelope.Job != st.ID || envelope.Type != ev.Type || envelope.Seq == 0 {
			t.Fatalf("watch envelope %+v disagrees with frame %+v", envelope, ev)
		}
	}
}

// TestEventsAfterCursor pins the poll-side of the shared sequence
// space: ?after=<seq> returns only newer events, "next" is the resume
// cursor, and the seqs match the SSE event ids.
func TestEventsAfterCursor(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{SnapshotInterval: time.Hour})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	specBlob, _ := json.Marshal(smokeSpec())
	var st Status
	httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", specBlob, &st)
	pollUntil(t, ts.URL, st.ID, terminal)

	type eventsResp struct {
		Events []obs.Event `json:"events"`
		Next   uint64      `json:"next"`
	}
	var full eventsResp
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("events cache-control %q, want no-store", cc)
	}
	if err := json.Unmarshal(blob, &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Events) < 4 {
		t.Fatalf("too few events: %+v", full.Events)
	}
	if full.Next != full.Events[len(full.Events)-1].Seq {
		t.Fatalf("next = %d, want last seq %d", full.Next, full.Events[len(full.Events)-1].Seq)
	}

	cut := full.Events[1].Seq
	var tail eventsResp
	if code := httpJSON(t, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", ts.URL, st.ID, cut), nil, &tail); code != http.StatusOK {
		t.Fatalf("GET events?after: status %d", code)
	}
	if len(tail.Events) != len(full.Events)-2 || tail.Events[0].Seq != full.Events[2].Seq {
		t.Fatalf("?after=%d returned %+v, want the tail past it", cut, tail.Events)
	}

	var empty eventsResp
	httpJSON(t, http.MethodGet,
		fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", ts.URL, st.ID, full.Next), nil, &empty)
	if len(empty.Events) != 0 || empty.Next != full.Next {
		t.Fatalf("polling past next=%d returned %+v", full.Next, empty)
	}

	var errResp map[string]string
	if code := httpJSON(t, http.MethodGet,
		ts.URL+"/v1/jobs/"+st.ID+"/events?after=bogus", nil, &errResp); code != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", code)
	}
}

// TestETagConditionalReads pins the dedup-read layer: completed
// artifacts carry a spec-hash ETag, If-None-Match revalidates to 304
// with no body, repeated reads hit the in-memory cache, and a different
// spec gets a different ETag.
func TestETagConditionalReads(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Config{SnapshotInterval: time.Hour})
	ts := httptest.NewServer(NewHandler(m))
	defer ts.Close()

	run := func(spec any) Status {
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if code := httpJSON(t, http.MethodPost, ts.URL+"/v1/jobs", blob, &st); code != http.StatusAccepted {
			t.Fatalf("POST /v1/jobs: status %d", code)
		}
		final := pollUntil(t, ts.URL, st.ID, terminal)
		if final.State != StateDone {
			t.Fatalf("job finished as %+v", final)
		}
		return final
	}
	get := func(id, kind, inm string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/"+kind, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, blob
	}

	st := run(smokeSpec())
	resp, body := get(st.ID, "results", "")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || len(body) == 0 {
		t.Fatalf("first read: status %d etag %q len %d", resp.StatusCode, etag, len(body))
	}
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("etag %q is not a quoted strong validator", etag)
	}

	// Revalidation: 304, no body, ETag still present.
	resp304, body304 := get(st.ID, "results", etag)
	if resp304.StatusCode != http.StatusNotModified || len(body304) != 0 {
		t.Fatalf("revalidation: status %d body %q", resp304.StatusCode, body304)
	}
	if resp304.Header.Get("ETag") != etag {
		t.Fatalf("304 etag %q, want %q", resp304.Header.Get("ETag"), etag)
	}

	// A stale validator serves the full payload again — from cache.
	missesBefore := m.met.cacheMisses.Value()
	hitsBefore := m.met.cacheHits.Value()
	resp2, body2 := get(st.ID, "results", `"deadbeef"`)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body2, body) {
		t.Fatalf("stale-validator read: status %d, body drifted %v", resp2.StatusCode, !bytes.Equal(body2, body))
	}
	if m.met.cacheHits.Value() != hitsBefore+1 || m.met.cacheMisses.Value() != missesBefore {
		t.Fatalf("repeat read: hits %d→%d misses %d→%d, want one hit and no miss",
			hitsBefore, m.met.cacheHits.Value(), missesBefore, m.met.cacheMisses.Value())
	}

	// Trajectories share the spec-hash validator but cache separately.
	respTraj, _ := get(st.ID, "trajectories", "")
	if respTraj.Header.Get("ETag") != etag {
		t.Fatalf("trajectories etag %q, want %q", respTraj.Header.Get("ETag"), etag)
	}
	if r, b := get(st.ID, "trajectories", etag); r.StatusCode != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("trajectories revalidation: status %d body %q", r.StatusCode, b)
	}

	// A different spec — changed seed — must move the validator.
	other := smokeSpec()
	other.Seed = 12
	st2 := run(other)
	respOther, _ := get(st2.ID, "results", "")
	if otherTag := respOther.Header.Get("ETag"); otherTag == etag || otherTag == "" {
		t.Fatalf("changed spec kept etag %q", otherTag)
	}

	// An identical spec resubmitted shares the validator: the whole
	// point of spec-hash ETags is dedup across identical work.
	st3 := run(smokeSpec())
	respSame, _ := get(st3.ID, "results", "")
	if respSame.Header.Get("ETag") != etag {
		t.Fatalf("identical spec got etag %q, want shared %q", respSame.Header.Get("ETag"), etag)
	}
}
