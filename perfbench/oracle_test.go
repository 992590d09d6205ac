package main

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/coax-index/coax/coax"
)

func testRows() *coax.Table {
	t := coax.NewTable([]string{"id", "timestamp", "lat", "lon"})
	for i := 0; i < 50; i++ {
		f := float64(i)
		t.Append([]float64{f, 2 * f, 40 + f/100, -70 - f/100})
	}
	t.Append([]float64{10, 20, 40.1, -70.1}) // a duplicate row: answers are multisets
	return t
}

// answerFor renders what a correct server returns for req over rows.
func answerFor(t *testing.T, rows *coax.Table, req *request) []byte {
	t.Helper()
	want := expect(rows, req)
	resp := map[string]any{"count": want.count}
	if req.agg == "" {
		resp["rows"] = want.rows
	} else {
		agg := map[string]any{"op": req.agg, "count": want.count}
		if req.agg == "sum" {
			agg["value"] = want.sum
		}
		resp["agg"] = agg
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOracleAcceptsCorrectAnswers(t *testing.T) {
	rows := testRows()
	r := coax.FullRect(4)
	r.Min[0], r.Max[0] = 5, 15
	for _, agg := range []string{"", "count", "sum"} {
		req := queryRequest(r, agg)
		if err := checkAnswer(rows, req, answerFor(t, rows, req)); err != nil {
			t.Errorf("agg %q: correct answer rejected: %v", agg, err)
		}
	}
}

// TestOracleCatchesWrongAnswers feeds the oracle answers that are wrong in
// each way a server could be wrong and requires every one to be caught, and
// counted as a failure by the loop's accounting.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	rows := testRows()
	r := coax.FullRect(4)
	r.Min[0], r.Max[0] = 5, 15
	req := queryRequest(r, "")
	good := expect(rows, req)

	cases := map[string]string{
		"count off by one":  `{"count":13,"rows":` + mustRows(good.rows) + `}`,
		"missing row":       `{"count":12,"rows":` + mustRows(good.rows[1:]) + `}`,
		"foreign row":       `{"count":12,"rows":` + mustRows(append([][]float64{{99, 198, 40.99, -70.99}}, good.rows[1:]...)) + `}`,
		"duplicate dropped": `{"count":12,"rows":` + mustRows(dedupe(good.rows)) + `}`,
		"not json":          `<html>oops</html>`,
	}
	for name, body := range cases {
		if err := checkAnswer(rows, req, []byte(body)); err == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}

	sum := queryRequest(r, "sum")
	want := expect(rows, sum)
	if err := checkAnswer(rows, sum, []byte(`{"count":12,"agg":{"op":"sum","count":12,"value":1}}`)); err == nil || want.sum == 1 {
		t.Errorf("wrong sum accepted")
	}

	// A deliberately wrong expectation must surface as a failed, wrong
	// operation in the loop's accounting.
	var res loopResult
	if err := checkAnswer(rows, req, []byte(cases["missing row"])); err != nil {
		res.wrong++
		res.fail("wrong answer: %v", err)
	}
	if res.wrong != 1 || res.failed != 1 || !strings.Contains(res.failures[0], "wrong answer") {
		t.Errorf("wrong answer not counted: %+v", res)
	}
}

func mustRows(rows [][]float64) string {
	b, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func dedupe(rows [][]float64) [][]float64 {
	var out [][]float64
	for i, r := range rows {
		if i > 0 && slices.Equal(r, rows[i-1]) {
			continue
		}
		out = append(out, r)
	}
	return out
}

func TestLeadingCount(t *testing.T) {
	for body, want := range map[string]int{`{"count":0}`: 0, `{"count":123,"rows":[]}`: 123} {
		if n, ok := leadingCount([]byte(body)); !ok || n != want {
			t.Errorf("%s: got %d %v", body, n, ok)
		}
	}
	if _, ok := leadingCount([]byte(`{"error":"x"}`)); ok {
		t.Error("error body parsed as a count")
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	if _, ok := p99(xs); ok {
		t.Error("p99 of 999 samples has fewer than ten beyond it")
	}
	if _, ok := p99(make([]float64, 1000)); !ok {
		t.Error("p99 of 1000 samples has ten beyond it")
	}
}
