package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// printEnv stamps the run with what its numbers depend on besides the
// code. The commit comes from run.sh (a bare checkout has none).
func printEnv(w io.Writer) {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(w, "env commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		commit, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
