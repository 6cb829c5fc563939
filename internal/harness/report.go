package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Series is one curve of a figure: a label and a Y value per X position.
type Series struct {
	Label string
	Ys    []float64
}

// Table renders figure data in the layout the paper's plots encode: one row
// per series, one column per X value.
type Table struct {
	Title  string
	XLabel string
	Xs     []string
	Series []Series
}

// row is one labelled series of a grid: y measures its point at axis value x.
type row struct {
	label string
	y     func(x int) float64
}

// grid measures a Table over the axis xs, each X value rendered by format
// (strconv.Itoa or FormatCycles), with one series per row. It measures
// series by series, each along the whole axis.
func grid(title, xlabel string, xs []int, format func(int) string, rows ...row) *Table {
	t := &Table{Title: title, XLabel: xlabel}
	for _, x := range xs {
		t.Xs = append(t.Xs, format(x))
	}
	for _, r := range rows {
		s := Series{Label: r.label}
		for _, x := range xs {
			s.Ys = append(s.Ys, r.y(x))
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	labelW := len(t.XLabel)
	for _, s := range t.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	colW := 8
	for _, x := range t.Xs {
		if len(x)+1 > colW {
			colW = len(x) + 1
		}
	}
	for _, s := range t.Series {
		for _, y := range s.Ys {
			if w := len(fmt.Sprintf("%.3f", y)) + 1; w > colW {
				colW = w
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, t.XLabel)
	for _, x := range t.Xs {
		fmt.Fprintf(&b, "%*s", colW, x)
	}
	b.WriteByte('\n')
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%-*s", labelW+2, s.Label)
		for i := range t.Xs {
			if i < len(s.Ys) {
				fmt.Fprintf(&b, "%*.3f", colW, s.Ys[i])
			} else {
				fmt.Fprintf(&b, "%*s", colW, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HistTable renders a step-size distribution (Figure 6): percentage of
// elements collected at each step size, per X value.
type HistTable struct {
	Title string
	Xs    []string
	// Hists[i] is the step histogram at Xs[i].
	Hists []map[int]uint64
}

// Render formats one row per step size observed anywhere in the sweep.
func (t *HistTable) Render() string {
	stepSet := make(map[int]bool)
	for _, h := range t.Hists {
		for s := range h {
			stepSet[s] = true
		}
	}
	steps := make([]int, 0, len(stepSet))
	for s := range stepSet {
		steps = append(steps, s)
	}
	sort.Ints(steps)

	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	fmt.Fprintf(&b, "%-10s", "step")
	for _, x := range t.Xs {
		fmt.Fprintf(&b, "%9s", x)
	}
	b.WriteByte('\n')
	for _, s := range steps {
		fmt.Fprintf(&b, "%-10d", s)
		for i := range t.Xs {
			var total, n uint64
			for _, v := range t.Hists[i] {
				total += v
			}
			n = t.Hists[i][s]
			if total == 0 {
				fmt.Fprintf(&b, "%9s", "-")
			} else {
				fmt.Fprintf(&b, "%8.1f%%", 100*float64(n)/float64(total))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatCycles renders a cycle count the way the paper's axes do (1M, 500k,
// 20k, 800, ...).
func FormatCycles(c int) string {
	switch {
	case c >= 1000000 && c%1000000 == 0:
		return fmt.Sprintf("%dM", c/1000000)
	case c >= 1000 && c%1000 == 0:
		return fmt.Sprintf("%dk", c/1000)
	default:
		return fmt.Sprintf("%d", c)
	}
}
