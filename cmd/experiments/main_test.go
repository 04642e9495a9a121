package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// timing matches the two kinds of line that report wall time.
var timing = regexp.MustCompile(`(?m)^(workloads ready in .*|\[\w+ completed in .*\])\n`)

// TestGoldenOutputs pins every table and figure that -exp all prints, with
// unweighted and IDF-weighted candidates, to the bytes in testdata. Only the
// timing lines are dropped. Run with -update to rewrite the files after a
// change that is meant to move a number.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale experiments skipped in -short mode")
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"all.golden", []string{"-exp", "all"}},
		{"all-idf.golden", []string{"-exp", "all", "-idf"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, tc.args); err != nil {
				t.Fatal(err)
			}
			got := timing.ReplaceAll(out.Bytes(), nil)
			path := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, want) {
				return
			}
			gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
				if !bytes.Equal(gotLines[i], wantLines[i]) {
					t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("%s: got %d lines, want %d", path, len(gotLines), len(wantLines))
		})
	}
}
