package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestOutput pins the example's report, every printed digit, against
// testdata/scheduler.out. The numbers are exact on amd64, like the
// repository's other goldens. After a deliberate change, regenerate it
// with
//
//	go run ./examples/scheduler > examples/scheduler/testdata/scheduler.out
func TestOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the output is pinned on amd64, not %s", runtime.GOARCH)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/scheduler.out")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/scheduler.out:\n%s", got.Bytes())
	}
}
