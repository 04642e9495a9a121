package crowdjoin_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"crowdjoin/internal/server"
)

// benchServerCorpus builds n records over synthetic entities (3 variants
// each, token overlap above the default threshold).
func benchServerCorpus(n int) []server.Record {
	recs := make([]server.Record, 0, n)
	for i := 0; len(recs) < n; i++ {
		for j := 0; j < 3 && len(recs) < n; j++ {
			recs = append(recs, server.Record{
				Text:   fmt.Sprintf("brand%d model%d variant%d", i/3, i, j),
				Entity: fmt.Sprintf("e%d", i),
			})
		}
	}
	return recs
}

// BenchmarkServerThroughput measures the join server end to end over HTTP
// with a simulated per-question crowd latency: one op submits J jobs and
// waits for all of them. jobs=1 is the sequential baseline; jobs=8 shows
// the cross-job scheduler multiplexing all jobs' HIT rounds onto the same
// crowd worker pool — wall-clock per job drops well below the sequential
// cost because no job waits for another's round to drain.
func BenchmarkServerThroughput(b *testing.B) {
	recs := benchServerCorpus(30)
	spec, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			srv, err := server.New(server.Config{
				DataDir: b.TempDir(),
				Workers: 8,
				Latency: 200 * time.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ids := make([]string, jobs)
				for k := range ids {
					ids[k] = benchSubmit(b, ts.URL, spec)
				}
				for _, id := range ids {
					benchWaitDone(b, ts.URL, id)
				}
			}
			b.StopTimer()
			secPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(jobs)/secPerOp, "jobs/sec")
		})
	}
}

// BenchmarkServerEventStream times one job as an SSE follower sees it:
// Paper@0.3's 997 records, with their entity ids, submitted as a default
// (platform) job to a server with two crowd workers and no latency, then
// followed over GET /jobs/{id}/events to the terminal state. Every
// candidate pair ends as one crowd answer or one deduction, and each is
// one event, so the stream runs past the hub's ring; a stream that ends
// early is resumed with Last-Event-ID and counted as a reconnect.
func BenchmarkServerEventStream(b *testing.B) {
	d := benchEnv(b).Paper.Dataset
	recs := make([]server.Record, d.Len())
	for i := range recs {
		recs[i] = server.Record{Text: d.Records[i].Text(), Entity: strconv.Itoa(int(d.Records[i].Entity))}
	}
	spec, err := json.Marshal(server.JobSpec{Records: recs})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{DataDir: b.TempDir(), Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var events, reconnects int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, r := benchFollow(b, ts.URL, benchSubmit(b, ts.URL, spec))
		events += n
		reconnects += r
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(reconnects)/float64(b.N), "reconnects/op")
}

// benchFollow reads a job's event stream until its terminal state event,
// resuming with Last-Event-ID whenever a stream ends before it, and
// returns the events read and the reconnects made.
func benchFollow(b *testing.B, base, id string) (events, reconnects int) {
	b.Helper()
	lastID := ""
	for {
		req, err := http.NewRequest("GET", base+"/jobs/"+id+"/events", nil)
		if err != nil {
			b.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var kind []byte
		state := ""
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() && state == "" {
			line := sc.Bytes()
			if v, ok := bytes.CutPrefix(line, []byte("id: ")); ok {
				lastID = string(v)
				events++
			} else if v, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				kind = append(kind[:0], v...)
			} else if v, ok := bytes.CutPrefix(line, []byte("data: ")); ok && string(kind) == "state" {
				var e server.JobEvent
				if err := json.Unmarshal(v, &e); err != nil {
					b.Fatal(err)
				}
				if e.State != server.StateRunning {
					state = e.State
				}
			}
		}
		err = sc.Err()
		resp.Body.Close()
		switch {
		case err != nil:
			b.Fatal(err)
		case state == server.StateDone:
			return events, reconnects
		case state != "":
			b.Fatalf("job %s ended %s", id, state)
		}
		reconnects++
	}
}

func benchSubmit(b *testing.B, base string, spec []byte) string {
	b.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &created); err != nil {
		b.Fatal(err)
	}
	return created.ID
}

func benchWaitDone(b *testing.B, base, id string) {
	b.Helper()
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		switch st.State {
		case "done":
			return
		case "running":
			time.Sleep(200 * time.Microsecond)
		default:
			b.Fatalf("job %s ended %s (%s)", id, st.State, st.Error)
		}
	}
}
