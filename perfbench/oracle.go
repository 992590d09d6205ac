package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"github.com/coax-index/coax/coax"
)

// queryResponse is the part of a /query answer the oracle checks.
type queryResponse struct {
	Count int         `json:"count"`
	Rows  [][]float64 `json:"rows"`
	Agg   *struct {
		Op    string   `json:"op"`
		Count int64    `json:"count"`
		Value *float64 `json:"value"`
	} `json:"agg"`
}

// lonCol is the column SUM aggregates fold (OSM columns: id, timestamp,
// lat, lon).
const lonCol = 3

// answer is what the oracle expects of one /query response: computed by a
// plain scan of the benchmark's own copy of the rows the server holds.
type answer struct {
	agg   string
	count int
	sum   float64     // SUM(lon) over the matches
	rows  [][]float64 // the matching rows of a row query, sorted
}

func expect(rows *coax.Table, req *request) answer {
	a := answer{agg: req.agg}
	for i := 0; i < rows.Len(); i++ {
		row := rows.Row(i)
		if !req.rect.Contains(row) {
			continue
		}
		a.count++
		a.sum += row[lonCol]
		if req.agg == "" {
			a.rows = append(a.rows, slices.Clone(row))
		}
	}
	slices.SortFunc(a.rows, slices.Compare)
	return a
}

// checkAnswer compares one /query response body against a plain scan of
// rows.
func checkAnswer(rows *coax.Table, req *request, body []byte) error {
	return expect(rows, req).check(body)
}

// check compares a response body with the expected answer. A row query
// must report the exact match count and return a sub-multiset of the
// matching rows: all of them when the count is within the server's row
// limit. An aggregate must report the exact count and, for SUM, a sum equal
// to the scanned one up to floating-point reassociation.
func (a answer) check(body []byte) error {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if a.agg != "" {
		return checkAgg(a.agg, a.count, a.sum, resp)
	}
	if resp.Count != a.count {
		return fmt.Errorf("count %d, oracle scan found %d", resp.Count, a.count)
	}
	if len(resp.Rows) != min(a.count, defaultRowLimit) {
		return fmt.Errorf("%d rows returned for %d matches", len(resp.Rows), a.count)
	}
	got := slices.Clone(resp.Rows)
	slices.SortFunc(got, slices.Compare)
	// Every returned row must consume one distinct matching row.
	j := 0
	for _, g := range got {
		for j < len(a.rows) && slices.Compare(a.rows[j], g) < 0 {
			j++
		}
		if j == len(a.rows) || slices.Compare(a.rows[j], g) != 0 {
			return fmt.Errorf("row %v is not among the matching rows, or is returned too often", g)
		}
		j++
	}
	return nil
}

// defaultRowLimit is the server's row cap when a request sets no limit.
const defaultRowLimit = 1000

func checkAgg(op string, count int, sum float64, resp queryResponse) error {
	if resp.Agg == nil {
		return fmt.Errorf("aggregate answer has no agg object")
	}
	if resp.Count != count || resp.Agg.Count != int64(count) {
		return fmt.Errorf("%s over %d rows (agg count %d), oracle scan found %d", op, resp.Count, resp.Agg.Count, count)
	}
	if op != "sum" {
		return nil
	}
	if resp.Agg.Value == nil {
		return fmt.Errorf("sum has no value")
	}
	if got := *resp.Agg.Value; math.Abs(got-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
		return fmt.Errorf("sum %v, oracle scan found %v", got, sum)
	}
	return nil
}
