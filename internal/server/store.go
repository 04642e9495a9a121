package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"crowdjoin"
)

// store is the server's durable layout. Each job owns one directory:
//
//	<data>/jobs/<id>/spec.json    the validated JobSpec (written once, first)
//	<data>/jobs/<id>/journal.log  the session's label journal (crowdjoin format)
//	<data>/jobs/<id>/batches.log  streaming jobs: one JSON line per appended batch
//	<data>/jobs/<id>/state.json   terminal marker: only "done" and "cancelled"
//	<data>/jobs/<id>/result.json  the final ResultPayload, the body GET /result serves
//
// Every write is fsynced before the server acknowledges anything that
// depends on it, and spec/state/result go through write-to-temp + rename so
// a crash never leaves a torn JSON file. The absence of state.json is the
// resume signal: New scans jobs/*, and every directory without a terminal
// marker is restarted — the journal replays all bought answers, so the
// resumed run re-crowdsources nothing.
type store struct {
	root string // <data>/jobs
}

func newStore(dataDir string) (*store, error) {
	root := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &store{root: root}, nil
}

func (st *store) dir(id string) string { return filepath.Join(st.root, id) }

// createJob makes the job directory and persists its spec. The jobs
// directory is fsynced so the new entry survives a crash.
func (st *store) createJob(id string, spec *JobSpec) error {
	dir := st.dir(id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "spec.json"), data); err != nil {
		return err
	}
	return fsyncDir(st.root)
}

// openJournal opens (or creates, durably) the job's label journal.
func (st *store) openJournal(id string) (*os.File, error) {
	return crowdjoin.OpenJournalFile(filepath.Join(st.dir(id), "journal.log"))
}

// batchLine is one record batch of a streaming job, as persisted in
// batches.log and accepted by POST /jobs/{id}/batches.
type batchLine struct {
	Records []Record `json:"records,omitempty"`
	// Final marks the end of the stream: the job completes once every
	// batch before it is labeled. A final batch may carry records too.
	Final bool `json:"final,omitempty"`
}

// appendBatch durably appends one batch line before the server
// acknowledges it: after a crash, every acknowledged batch is replayed
// into the resumed session in arrival order (the journal's arrival
// entries validate against exactly this sequence).
func (st *store) appendBatch(id string, b batchLine) error {
	f, err := crowdjoin.OpenJournalFile(filepath.Join(st.dir(id), "batches.log"))
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// readBatches returns the job's persisted batch lines, tolerating a torn
// final line (the batch it held was never acknowledged).
func (st *store) readBatches(id string) ([]batchLine, error) {
	f, err := os.Open(filepath.Join(st.dir(id), "batches.log"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []batchLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var b batchLine
		if err := json.Unmarshal(sc.Bytes(), &b); err != nil {
			// Torn tail from a crash mid-append; everything after it was
			// unacknowledged by construction.
			break
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// terminalState is the content of state.json.
type terminalState struct {
	State string `json:"state"` // "done" or "cancelled"
	Error string `json:"error,omitempty"`
}

// writeTerminal persists a job's final state: the encoded result payload
// first, stored as the exact body GET /jobs/{id}/result serves, then the
// state marker that declares it valid. Only done and cancelled jobs are
// marked terminal — a job killed by a crash or shutdown leaves no marker
// and is resumed by the next start.
func (st *store) writeTerminal(id string, ts terminalState, result []byte) error {
	if err := writeFileAtomic(st.resultPath(id), result); err != nil {
		return err
	}
	data, err := json.Marshal(ts)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(st.dir(id), "state.json"), data)
}

// storedJob is one job directory as found by scan.
type storedJob struct {
	ID       string
	Spec     *JobSpec
	Terminal *terminalState // nil: the job was in flight and must resume
	Batches  []batchLine
}

// scan loads every job directory under the store, skipping entries without
// a readable spec (a crash between Mkdir and the spec write leaves an
// empty directory that never had an acknowledged job in it).
func (st *store) scan() ([]storedJob, error) {
	ents, err := os.ReadDir(st.root)
	if err != nil {
		return nil, err
	}
	var jobs []storedJob
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		var spec JobSpec
		if err := readJSON(filepath.Join(st.dir(id), "spec.json"), &spec); err != nil {
			continue
		}
		if err := spec.normalize(); err != nil {
			return nil, fmt.Errorf("server: stored job %s: %w", id, err)
		}
		sj := storedJob{ID: id, Spec: &spec}
		var ts terminalState
		if err := readJSON(filepath.Join(st.dir(id), "state.json"), &ts); err == nil {
			sj.Terminal = &ts
		}
		if spec.Streaming {
			if sj.Batches, err = st.readBatches(id); err != nil {
				return nil, fmt.Errorf("server: stored job %s: %w", id, err)
			}
		}
		jobs = append(jobs, sj)
	}
	return jobs, nil
}

func (st *store) resultPath(id string) string { return filepath.Join(st.dir(id), "result.json") }

// openResult opens a terminal job's stored result body.
func (st *store) openResult(id string) (*os.File, error) { return os.Open(st.resultPath(id)) }

// readClusters loads the clusters of a terminal job's stored result, all
// that ?format=text needs; decoding the whole file also checks that it is
// valid JSON.
func (st *store) readClusters(id string) ([][]int32, error) {
	var r struct {
		Clusters [][]int32 `json:"clusters"`
	}
	err := readJSON(st.resultPath(id), &r)
	return r.Clusters, err
}

func readJSON(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// writeFileAtomic writes data via temp-file + fsync + rename + parent
// fsync, so the path either holds the old content or the complete new one.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
