package jsonwire

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// The append encoders write the bytes json.Marshal writes: every single
// byte, a sweep of code points around the escaped ones, and random byte
// strings (invalid UTF-8 included).
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	inputs := []string{"", "plain", `quote"back\slash`, "<script>&amp;", "café 日本語 🙂", "\u2027\u2028\u2029\u202a", "\ufffd", "a\xc3", "\xed\xa0\x80"}
	for c := 0; c < 256; c++ {
		inputs = append(inputs, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	rng := rand.New(rand.NewPCG(7, 25))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.IntN(12))
		for j := range b {
			b[j] = byte(rng.IntN(256))
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("%q: AppendString %q, json.Marshal %q", s, got[len("prefix"):], want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, math.Nextafter(1e21, 0), 1e-6, math.Nextafter(1e-6, 0),
		1e-7, 5e-324, math.MaxFloat64, -1e-7, 123456789.123, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewPCG(25, 7))
	for i := 0; i < 5000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.Float64()*1000)
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		got, ok := AppendFloat(nil, f)
		if ok != (err == nil) || (ok && string(got) != string(want)) {
			t.Fatalf("%v: AppendFloat %q/%v, json.Marshal %q/%v", f, got, ok, want, err)
		}
	}
}

// The number scanners take a literal only when encoding/json takes it as
// the whole document, and then read the same value; Int, which serve
// keeps to 18 digits, may decline more.
func TestNumbersAgreeWithEncodingJSON(t *testing.T) {
	lits := []string{"0", "-0", "1", "-1", "01", "-01", "00", "1.5", "-0.0", "1.", ".5", "+1", "-", "--1", "1e5", "1E+05", "1e-7",
		"1e", "1e+", "1.e5", "0.5e-3", "1.5.5", "1e5e5", "1e400", "-1e400", "1e-400", "Inf", "NaN", "0x1p3", "1_0",
		"123456789012345678", "1234567890123456789", "9223372036854775807", "9223372036854775808",
		"18446744073709551615", "18446744073709551616", " 7", "7 ", "\t-3\n", "- 3", "1-2", "1,", "363.71239012345678901234"}
	for _, lit := range lits {
		var f float64
		var u uint64
		var n int
		fErr, uErr, nErr := json.Unmarshal([]byte(lit), &f), json.Unmarshal([]byte(lit), &u), json.Unmarshal([]byte(lit), &n)

		d := NewScanner(lit)
		got, ok := d.Float()
		ok = ok && d.AtEnd()
		if ok != (fErr == nil) || (ok && math.Float64bits(got) != math.Float64bits(f)) {
			t.Errorf("Float %q: %v/%v, encoding/json %v/%v", lit, got, ok, f, fErr)
		}
		d = NewScanner(lit)
		gu, ok := d.Uint()
		if ok = ok && d.AtEnd(); ok != (uErr == nil) || (ok && gu != u) {
			t.Errorf("Uint %q: %v/%v, encoding/json %v/%v", lit, gu, ok, u, uErr)
		}
		d = NewScanner(lit)
		gn, ok := d.Int()
		if ok = ok && d.AtEnd(); ok && (nErr != nil || gn != n) {
			t.Errorf("Int %q: %v, encoding/json %v/%v", lit, gn, n, nErr)
		}
		if wantInt := nErr == nil && strings.Trim(lit, " \t\n-") != "" && len(strings.Trim(lit, " \t\n-")) <= 18; ok != wantInt {
			t.Errorf("Int %q: took %v, want %v", lit, ok, wantInt)
		}
	}
}

// Windows of the arena are capacity-capped and survive Reset.
func TestStringArrayWindows(t *testing.T) {
	d := NewScanner(`["a","b"]`)
	first, ok := d.StringArray()
	if !ok {
		t.Fatal("declined")
	}
	d.Reset(`[] ["c"]`)
	empty, ok1 := d.StringArray()
	second, ok2 := d.StringArray()
	if !ok1 || !ok2 || empty == nil || len(empty) != 0 || cap(first) != 2 || strings.Join(second, ",") != "c" {
		t.Fatalf("first %q (cap %d), empty %#v, second %q", first, cap(first), empty, second)
	}
	_ = append(first, "x")
	if second[0] != "c" || strings.Join(first, ",") != "a,b" {
		t.Fatalf("an append to one window reached another: %q %q", first, second)
	}
}

// Rewind takes back the arena windows handed out since its Mark and
// clears them, so a reused scanner keeps none of their strings alive.
func TestRewindClearsTakenWindows(t *testing.T) {
	d := NewScanner(`["a","b"] ["c"]`)
	if _, ok := d.StringArray(); !ok {
		t.Fatal("first array")
	}
	at := d.Mark()
	if _, ok := d.StringArray(); !ok {
		t.Fatal("second array")
	}
	d.Rewind(at)
	if got := d.arena[:cap(d.arena)]; len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "" {
		t.Fatalf("arena after Rewind: %q", got)
	}
	if again, ok := d.StringArray(); !ok || len(again) != 1 || again[0] != "c" || !d.AtEnd() {
		t.Fatalf("after Rewind: %q, %v", again, ok)
	}
}
