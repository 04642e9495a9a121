package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paperdedup.golden from the current output")

// TestGoldenOutput pins everything the example prints to the bytes in
// testdata. Run with -update to rewrite the file after a change that is
// meant to move a number.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "paperdedup.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the output:\n got %s\nwant %s", path, got, want)
	}
}
