// Command crowdjoind serves crowdsourced joins over HTTP: a multi-tenant
// join server that runs many sessions concurrently against one shared
// (simulated) crowd, schedules every job's HIT rounds round-robin across
// jobs, journals each session under its data directory — a killed or
// redeployed daemon resumes all in-flight jobs without re-asking a single
// answered question — and enforces per-tenant concurrency, budget, and
// rate limits on crowd-question spend.
//
// Start it:
//
//	crowdjoind -addr :8080 -data /var/lib/crowdjoind -workers 8 -latency 50ms
//
// Submit a join job (records carry the text to match and the ground-truth
// entity key the simulated crowd answers from, like crowdjoin -crowd auto):
//
//	curl -s localhost:8080/jobs -d '{
//	  "tenant": "acme",
//	  "strategy": "platform",
//	  "threshold": 0.3,
//	  "records": [
//	    {"text": "iPad 2 16GB WiFi", "entity": "ipad2"},
//	    {"text": "Apple iPad2 16 GB Wi-Fi", "entity": "ipad2"},
//	    {"text": "Kindle Fire HD", "entity": "kindle"}
//	  ]
//	}'
//	{"id":"j-3f0a92c41d55","state":"running",...}
//
// Poll it, stream its progress, fetch the clusters:
//
//	curl -s localhost:8080/jobs/j-3f0a92c41d55
//	curl -N localhost:8080/jobs/j-3f0a92c41d55/events        # SSE
//	curl -s localhost:8080/jobs/j-3f0a92c41d55/result        # JSON
//	curl -s 'localhost:8080/jobs/j-3f0a92c41d55/result?format=text'
//
// Cancel it (the partial result — every answer bought, fully deduced —
// stays available at /result):
//
//	curl -s -X DELETE localhost:8080/jobs/j-3f0a92c41d55
//
// Stream records into a running job ("streaming": true in the spec), then
// finish it:
//
//	curl -s localhost:8080/jobs -d '{"streaming": true, "records": []}'
//	curl -s localhost:8080/jobs/$ID/batches -d \
//	  '{"records": [{"text": "iPad 2 16GB", "entity": "ipad2"}]}'
//	curl -s localhost:8080/jobs/$ID/batches -d '{"final": true}'
//
// Check a tenant's spend:
//
//	curl -s localhost:8080/tenants/acme/usage
//
// Job specs accept "strategy" (platform — the default, sharing the crowd
// worker pool across jobs — sequential, parallel, onetoone, budget),
// "threshold" and "idf" for the matcher, "concurrency" for
// component-sharded labeling, "budget"/"guess" for the budget strategy,
// "order" (expected or given), and "records_b" for bipartite joins.
//
// Kill the daemon at any moment and restart it on the same -data
// directory: every unfinished job resumes, its journal replays everything
// already answered, and only genuinely unanswered pairs reach the crowd.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crowdjoin/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	data := flag.String("data", "", "data directory for job journals and results (required)")
	workers := flag.Int("workers", 8, "crowd workers shared by all jobs")
	latency := flag.Duration("latency", 0, "simulated crowd latency per question")
	maxJobs := flag.Int("max-active-jobs", 0, "default per-tenant concurrent-job limit (0 = unlimited)")
	budget := flag.Int("question-budget", 0, "default per-tenant crowd-question budget (0 = unlimited)")
	rate := flag.Float64("rate", 0, "default per-tenant questions/sec rate limit (0 = unlimited)")
	burst := flag.Int("burst", 0, "rate-limit burst (0 = one second's worth)")
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "crowdjoind: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "crowdjoind: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		DataDir: *data,
		Workers: *workers,
		Latency: *latency,
		DefaultLimits: server.TenantLimits{
			MaxActiveJobs:   *maxJobs,
			QuestionBudget:  *budget,
			QuestionsPerSec: *rate,
			Burst:           *burst,
		},
		Logf: logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	// Listen before logging so "-addr :0" reports the port the kernel
	// actually picked (scripts/smoke_server.sh scrapes this line).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The header and idle timeouts bound how long a client that never
	// finishes its request headers, or leaves a keep-alive connection
	// idle, holds a socket and a goroutine. WriteTimeout stays zero: a
	// job's SSE stream (/jobs/{id}/events) stays open for the job's whole
	// run, and a write deadline would cut it. ReadTimeout stays zero too:
	// it would cut slow uploads of large specs, whose size maxBody already
	// bounds.
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Print("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
	}()

	logger.Printf("serving on %s (data %s, %d workers)", ln.Addr(), *data, *workers)
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	// In-flight jobs stop without terminal markers; the next start on this
	// data directory resumes them with their journals replayed.
	if err := srv.Close(); err != nil {
		logger.Print(err)
	}
	logger.Print("stopped")
}
