package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// plan runs coloplan against the in-process demo model with the given
// apps (or, when apps is empty, the problem document at input) and
// explicitly set flags.
func plan(t *testing.T, input, apps string, count int, qos float64, jsonOut bool, set ...string) (int, string, error) {
	t.Helper()
	explicit := make(map[string]bool)
	for _, name := range set {
		explicit[name] = true
	}
	var out bytes.Buffer
	code, err := run(&out, "", true, input, apps, count, 11, 0, 0, "", qos, time.Minute, jsonOut, explicit)
	return code, out.String(), err
}

func TestDemoPlanMeetsBound(t *testing.T) {
	code, out, err := plan(t, "-", "cg,ep,mg,cg,ep,mg,cg,ep", 3, 0, false, "seed")
	if code != 0 || err != nil {
		t.Fatalf("exit %d, err %v; output:\n%s", code, err, out)
	}
	for _, want := range []string{"machines used 3/3, qos violations 0", "search converged"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestDemoPlanViolatedBoundExits2(t *testing.T) {
	// Six memory-bound copies on one machine under a 1 % bound: no plan
	// can meet it, and the violation is the finding.
	code, out, err := plan(t, "-", "cg,cg,cg,cg,cg,cg", 1, 1.01, false, "qos")
	if code != 2 || err == nil {
		t.Fatalf("exit %d, err %v, want exit 2 with the violation count; output:\n%s", code, err, out)
	}
	if !strings.Contains(out, "!QoS") {
		t.Fatalf("violating apps are not marked in the table:\n%s", out)
	}
}

func TestDemoPlanJSONDeterministic(t *testing.T) {
	_, first, err := plan(t, "-", "cg,ep,mg,cg,ep,mg,cg,ep", 3, 0, true, "seed")
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := plan(t, "-", "cg,ep,mg,cg,ep,mg,cg,ep", 3, 0, true, "seed")
	if err != nil {
		t.Fatal(err)
	}
	if first != second || !strings.Contains(first, `"scenarios_predicted"`) {
		t.Fatalf("two runs of one seeded problem differ (or print no result):\n%s\n---\n%s", first, second)
	}
}

func TestOverflowingCountRejected(t *testing.T) {
	// The document that wrapped the serving tier's fleet-size check: the
	// shared expansion refuses it here too, before expanding anything.
	doc := filepath.Join(t.TempDir(), "problem.json")
	body := `{"apps":["cg"],"machines":[{"count":1},{"count":9223372036854775807}]}`
	if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, err := plan(t, doc, "", 0, 0, false)
	if code != 1 || err == nil || !strings.Contains(err.Error(), "fleet exceeds limit") {
		t.Fatalf("exit %d, err %v, want exit 1 on the fleet limit; output:\n%s", code, err, out)
	}
}
