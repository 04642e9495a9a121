package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// sseEvent is one dispatched server-sent event.
type sseEvent struct {
	id, event, data string
}

// readSSE parses a text/event-stream body and calls fn for every
// dispatched event until the body ends or fn returns false. Fields other
// than id, event and data (retry, comments) are ignored; an event is
// dispatched at a blank line when it carries data.
func readSSE(r io.Reader, fn func(sseEvent) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseEvent
	var data []string
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if len(data) > 0 {
				ev.data = strings.Join(data, "\n")
				if !fn(ev) {
					return nil
				}
			}
			ev.event, data = "", data[:0]
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.id = value
		case "event":
			ev.event = value
		case "data":
			data = append(data, value)
		}
	}
	return sc.Err()
}

// follow is what following one job's event stream observed.
type follow struct {
	state      string        // terminal state
	events     int           // events received, across reconnects
	reconnects int           // streams that ended before the terminal event
	firstEvent time.Duration // from the call to the first event
}

// terminalStates are the job states after which the stream ends.
var terminalStates = map[string]bool{"done": true, "cancelled": true, "failed": true}

// followJob reads GET {base}/jobs/{id}/events until the job's terminal
// "state" event. When the stream ends early — the server dropped this
// client as a laggard — it reconnects with Last-Event-ID and counts the
// reconnect. ctx bounds the whole follow, so a terminal event that never
// comes is an error, not a hang.
func followJob(ctx context.Context, client *http.Client, base, id string) (follow, error) {
	var (
		f      follow
		lastID string
		start  = time.Now()
	)
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/jobs/"+id+"/events", nil)
		if err != nil {
			return f, err
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := client.Do(req)
		if err != nil {
			return f, fmt.Errorf("following job %s: %w", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return f, fmt.Errorf("following job %s: HTTP %d", id, resp.StatusCode)
		}
		var perr error
		err = readSSE(resp.Body, func(ev sseEvent) bool {
			if f.events == 0 {
				f.firstEvent = time.Since(start)
			}
			f.events++
			lastID = ev.id
			if ev.event != "state" {
				return true
			}
			var st struct {
				State string `json:"state"`
			}
			if perr = json.Unmarshal([]byte(ev.data), &st); perr != nil {
				return false
			}
			if terminalStates[st.State] {
				f.state = st.State
				return false
			}
			return true
		})
		resp.Body.Close()
		switch {
		case perr != nil:
			return f, perr
		case f.state != "":
			return f, nil
		case ctx.Err() != nil:
			return f, fmt.Errorf("job %s: no terminal event: %w", id, ctx.Err())
		case err != nil && !errors.Is(err, io.ErrUnexpectedEOF):
			return f, fmt.Errorf("following job %s: %w", id, err)
		}
		f.reconnects++
	}
}
