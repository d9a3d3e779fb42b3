package atlas

// Inline-SVG rendering for the dashboard and `surw obs -atlas -out`: a
// sample-density heatmap per grid depth and a depth/branching profile.
// Pure string building, no templates — the same renderer serves the
// HTML dashboard (wrapped as template.HTML) and standalone .svg export.

import (
	"fmt"
	"math"
	"strings"
)

const (
	heatCell = 11 // px per bucket cell
	heatSide = 16 // 16×16 = GridSize buckets
	heatGap  = 26 // gap between grids, holds the depth label
	heatTop  = 16 // label row above each grid
)

// HeatmapSVG renders the cell's sample-density grids side by side as one
// inline SVG. Bucket colour scales with log(count) so a uniform sampler
// reads as a flat field and concentration as hot spots. Cells with no
// grid samples yet render a labelled empty frame rather than nothing.
func HeatmapSVG(cs CellSnapshot) string {
	grids := cs.Grids
	n := len(grids)
	if n == 0 {
		n = 1
	}
	w := n*(heatSide*heatCell+heatGap) - heatGap
	h := heatTop + heatSide*heatCell
	var b strings.Builder
	fmt.Fprintf(&b, `<svg class="atlas-heatmap" xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	if len(grids) == 0 {
		b.WriteString(`<text x="4" y="12" class="lbl" font-size="11" fill="#667">no density samples yet</text>`)
		fmt.Fprintf(&b, `<rect x="0" y="%d" width="%d" height="%d" fill="none" stroke="#ccd"/>`, heatTop, heatSide*heatCell, heatSide*heatCell)
	}
	for gi, g := range grids {
		x0 := gi * (heatSide*heatCell + heatGap)
		fmt.Fprintf(&b, `<text x="%d" y="12" font-size="11" fill="#667">depth %d · %d samples · %d/%d buckets · %.1f bits</text>`,
			x0, g.Depth, g.Samples, g.Occupied, len(g.Buckets), g.EntropyBits)
		var max float64
		for _, c := range g.Buckets {
			if f := float64(c); f > max {
				max = f
			}
		}
		for i, c := range g.Buckets {
			x := x0 + (i%heatSide)*heatCell
			y := heatTop + (i/heatSide)*heatCell
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`,
				x, y, heatCell-1, heatCell-1, heatColor(float64(c), max))
		}
	}
	b.WriteString(`</svg>`)
	return b.String()
}

// heatColor maps a bucket count to a white→deep-blue ramp on a log scale.
func heatColor(c, max float64) string {
	if c <= 0 || max <= 0 {
		return "#f4f5f7"
	}
	t := math.Log1p(c) / math.Log1p(max) // (0,1]
	// interpolate #e8ecf4 → #123a8c
	r := int(232 + t*(18-232))
	g := int(236 + t*(58-236))
	bl := int(244 + t*(140-244))
	return fmt.Sprintf("#%02x%02x%02x", r, g, bl)
}

const (
	profW    = 320
	profH    = 120
	profBase = 100 // baseline y of the bars
)

// DepthProfileSVG renders the decision-count-by-depth profile as bars,
// with the mean enabled-set size annotated as a polyline on a secondary
// scale. Empty profiles render a labelled empty frame.
func DepthProfileSVG(cs CellSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg class="atlas-depth" xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, profW, profH, profW, profH)
	fmt.Fprintf(&b, `<line x1="0" y1="%d" x2="%d" y2="%d" stroke="#ccd"/>`, profBase, profW, profBase)
	if len(cs.Depths) == 0 {
		b.WriteString(`<text x="4" y="14" font-size="11" fill="#667">no decisions recorded yet</text></svg>`)
		return b.String()
	}
	maxDepth := cs.Depths[len(cs.Depths)-1].Depth
	var maxCount uint64
	var maxEnabled float64
	for _, p := range cs.Depths {
		if p.Decisions > maxCount {
			maxCount = p.Decisions
		}
		if m := p.MeanEnabled(); m > maxEnabled {
			maxEnabled = m
		}
	}
	bw := profW / (maxDepth + 1)
	if bw < 2 {
		bw = 2
	}
	for _, p := range cs.Depths {
		hh := int(float64(profBase-18) * float64(p.Decisions) / float64(maxCount))
		if hh < 1 {
			hh = 1
		}
		x := (p.Depth - 1) * bw
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#4a6fd0"><title>depth %d: %d decisions, mean enabled %.2f</title></rect>`,
			x, profBase-hh, bw-1, hh, p.Depth, p.Decisions, p.MeanEnabled())
	}
	if maxEnabled > 0 {
		var pts []string
		for _, p := range cs.Depths {
			x := (p.Depth-1)*bw + bw/2
			y := profBase - int(float64(profBase-18)*p.MeanEnabled()/maxEnabled)
			pts = append(pts, fmt.Sprintf("%d,%d", x, y))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#d07a2a" stroke-width="1.5"/>`, strings.Join(pts, " "))
	}
	fmt.Fprintf(&b, `<text x="4" y="%d" font-size="10" fill="#667">decision depth 1–%d · bars: decisions · line: mean enabled (max %.1f)</text>`,
		profH-4, maxDepth, maxEnabled)
	b.WriteString(`</svg>`)
	return b.String()
}

// DocumentSVG wraps every cell's heatmap and depth profile into one
// standalone SVG document, stacked vertically — the `surw obs -atlas -out`
// artifact.
func DocumentSVG(s *Snapshot) string {
	const rowH = heatTop + heatSide*heatCell + profH + 44
	w := NumGrids*(heatSide*heatCell+heatGap) - heatGap
	if w < profW {
		w = profW
	}
	h := rowH * len(s.Cells)
	if h == 0 {
		h = 24
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w+16, h, w+16, h)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	for i, cs := range s.Cells {
		y := i * rowH
		label := fmt.Sprintf("%s / %s — %d schedules, %d decisions, max depth %d",
			cs.Target, cs.Algorithm, cs.Schedules, cs.Decisions, cs.MaxDepth)
		if cs.Uniformity != nil {
			label += fmt.Sprintf(", uniformity p=%.3g", cs.Uniformity.P)
			if cs.Uniformity.Alarm {
				label += " DRIFT"
			}
		}
		fmt.Fprintf(&b, `<text x="8" y="%d" font-size="12" fill="#223">%s</text>`, y+14, htmlEscape(label))
		fmt.Fprintf(&b, `<g transform="translate(8,%d)">%s</g>`, y+20, HeatmapSVG(cs))
		fmt.Fprintf(&b, `<g transform="translate(8,%d)">%s</g>`, y+20+heatTop+heatSide*heatCell+4, DepthProfileSVG(cs))
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
