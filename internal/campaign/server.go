package campaign

// The campaign dashboard: a stdlib-only HTTP server over a run-store.
// Served standalone by `surw dash` (read-only, tailing a store some
// campaign process writes) or embedded in a live campaign via
// `surw bench -serve` / `surw run -serve`. Endpoints:
//
//	/              HTML dashboard with inline-SVG survival and coverage curves
//	/api/campaign  the Aggregates rollup as JSON
//	/metrics       Prometheus text page (campaign counters + obs.Metrics)
//	/events        SSE stream of session/cell events, snapshot-first
//	/buildinfo     build identity JSON
//
// The server only reads the store's index and subscribes to its broker; it
// shares no state with the scheduler, so serving a live campaign cannot
// perturb a schedule any more than attaching the store can.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strings"

	"surw/internal/atlas"
	"surw/internal/buildinfo"
	"surw/internal/obs"
)

// Server serves the campaign dashboard for one store.
type Server struct {
	store    *Store
	metrics  *obs.Metrics                    // optional: live-campaign throughput
	remote   func() (*RemoteStatus, error)   // optional: distributed-campaign coordinator
	atlasSrc func() (*atlas.Snapshot, error) // optional: exploration atlas
	mux      *http.ServeMux
}

// NewServer builds the dashboard handler. metrics may be nil (standalone
// dashboards have no live run to meter).
func NewServer(store *Store, metrics *obs.Metrics) *Server {
	s := &Server{store: store, metrics: metrics, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/api/campaign", s.handleAPI)
	s.mux.Handle("/metrics", obs.PromHandler(s.writeMetrics))
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/buildinfo", s.handleBuildinfo)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetRemote attaches a distributed-campaign status source (the remote
// coordinator's Status method, or surw dash's HTTP fetch). The dashboard
// then shows the worker table and /metrics gains the surw_remote_* gauges.
// A source that fails returns its error, which the dashboard surfaces as a
// banner (and /api/campaign as remote_error) instead of silently showing
// an empty fleet view. Call before serving.
func (s *Server) SetRemote(status func() (*RemoteStatus, error)) { s.remote = status }

// SetAtlas attaches an exploration-atlas source (internal/atlas): the
// live registry's Snapshot for an embedded campaign, the coordinator's
// merged fleet view for a distributed one, or a loader over a written
// atlas.json for surw dash. The dashboard then renders the sample-density
// heatmaps and the depth profile, and /metrics gains the surw_atlas_*
// family. A failing source is treated
// like an absent one (the panel disappears; nothing breaks). Call before
// serving.
func (s *Server) SetAtlas(src func() (*atlas.Snapshot, error)) { s.atlasSrc = src }

// atlasSnapshot resolves the attached atlas source, nil when absent,
// failed, or empty.
func (s *Server) atlasSnapshot() *atlas.Snapshot {
	if s.atlasSrc == nil {
		return nil
	}
	snap, err := s.atlasSrc()
	if err != nil || snap == nil || len(snap.Cells) == 0 {
		return nil
	}
	return snap
}

// serveJSON answers with v as JSON, or with 500 and the encoder's error: a
// value that does not encode (encoding/json refuses an infinity) must not
// reach the client as an empty 200.
func serveJSON(w http.ResponseWriter, v any) {
	var body bytes.Buffer
	if err := obs.WriteJSON(&body, v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body.Bytes()) // the client went away: nobody to tell
}

// aggregates builds the rollup, attaching the live metrics snapshot when
// the server is embedded in a running campaign.
func (s *Server) aggregates() *Aggregates {
	agg := s.store.Aggregate()
	if s.metrics != nil {
		snap := s.metrics.Snapshot()
		agg.Metrics = &MetricsSnapshot{
			Schedules:       snap.Schedules,
			SchedulesPerSec: snap.SchedulesPerSec,
			StepsPerSched:   snap.StepsPerSched,
			TruncationRate:  snap.TruncationRate,
			Utilization:     snap.Utilization,
		}
	}
	if s.remote != nil {
		rs, err := s.remote()
		switch {
		case err != nil:
			agg.RemoteErr = err.Error()
		case rs != nil:
			agg.Remote = rs
		}
	}
	return agg
}

func (s *Server) handleAPI(w http.ResponseWriter, r *http.Request) { serveJSON(w, s.aggregates()) }

func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	serveJSON(w, buildinfo.Get())
}

// writeMetrics renders the Prometheus text page: the campaign counters
// always, the obs.Metrics aggregate and the fleet view when attached.
func (s *Server) writeMetrics(w io.Writer) error {
	var p obs.Prom
	p.Gauge("surw_campaign_sessions_stored", "Session records in the run-store.").Int(int64(s.store.Len()))
	p.Counter("surw_campaign_cells_total", "Cells completed by this process.").Int(int64(s.store.Cells()))
	// Dedup rollup over the stored records: per-cell distinct commutation
	// classes and duplicate rates, plus the campaign-wide totals. Pure
	// functions of the record set, like everything under surw_campaign_*.
	distinct := p.Gauge("surw_campaign_distinct_classes", "Distinct commutation classes across coverage cells.")
	duplicate := p.Gauge("surw_campaign_duplicate_rate", "Fraction of coverage-sampled schedules that re-sampled an already-seen class.")
	cellDistinct := p.Gauge("surw_campaign_cell_distinct_classes", "Distinct commutation classes per cell.")
	cellDuplicate := p.Gauge("surw_campaign_cell_duplicate_rate", "Duplicate rate per cell.")
	agg := s.store.Aggregate()
	totalClasses, totalSamples := 0, 0
	for _, c := range agg.Cells {
		if c.Coverage == nil || c.Coverage.Dedup == nil {
			continue
		}
		dd := c.Coverage.Dedup
		totalClasses += dd.DistinctClasses
		totalSamples += dd.Samples
		cellDistinct.Int(int64(dd.DistinctClasses), "target", c.Target, "algorithm", c.Algorithm)
		cellDuplicate.Fixed(dd.DuplicateRate, 6, "target", c.Target, "algorithm", c.Algorithm)
	}
	distinct.Int(int64(totalClasses))
	dupRate := 0.0
	if totalSamples > 0 {
		dupRate = float64(totalSamples-totalClasses) / float64(totalSamples)
	}
	duplicate.Fixed(dupRate, 6)
	// Atlas gauges, when an atlas source is attached: cartography volume.
	if snap := s.atlasSnapshot(); snap != nil {
		schedules := p.Gauge("surw_atlas_schedules", "Schedules observed by the exploration atlas per cell.")
		decisions := p.Gauge("surw_atlas_decisions", "True scheduling decisions observed per cell.")
		for _, c := range snap.Cells {
			schedules.Int(int64(c.Schedules), "target", c.Target, "algorithm", c.Algorithm)
			decisions.Int(int64(c.Decisions), "target", c.Target, "algorithm", c.Algorithm)
		}
	}
	if err := p.Flush(w); err != nil {
		return err
	}
	if s.metrics != nil {
		if err := s.metrics.WritePrometheus(w); err != nil {
			return err
		}
	}
	if s.remote != nil {
		// A failed fetch (surw dash -remote against a dead coordinator)
		// omits the surw_remote_* family; the dashboard page carries the
		// error, the metrics page stays parseable.
		if rs, err := s.remote(); err == nil && rs != nil {
			return rs.WritePrometheus(w)
		}
	}
	return nil
}

// handleEvents streams campaign events as server-sent events. The first
// event is always a "snapshot" with the store's current totals, so a
// subscriber (or the ci.sh curl smoke) sees one event immediately even on
// an idle campaign.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	ch := s.store.Events().Subscribe()
	defer s.store.Events().Unsubscribe(ch)

	writeSSE(w, Event{Type: "snapshot", Stored: s.store.Len(), Cells: s.store.Cells()})
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// --- HTML dashboard -------------------------------------------------------

type dashData struct {
	Dir        string
	Build      buildinfo.Info
	Agg        *Aggregates
	Cells      []dashCell
	AtlasCells []dashAtlas
	Targets    int
}

type dashCell struct {
	CellAggregate
	MeanFirstBug string
	GTCoverage   string
	Chao1Pct     string
	DedupClasses string
	DupRate      string
	SurvivalSVG  template.HTML
	GrowthSVG    template.HTML
}

// dashAtlas is one cell of the exploration-atlas section: the rendered
// heatmap and depth profile.
type dashAtlas struct {
	Target     string
	Algorithm  string
	Schedules  uint64
	Decisions  uint64
	MaxDepth   int
	HeatmapSVG template.HTML
	DepthSVG   template.HTML
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	agg := s.aggregates()
	data := dashData{Dir: s.store.Dir(), Build: buildinfo.Get(), Agg: agg}
	targets := make(map[string]bool)
	for _, c := range agg.Cells {
		targets[c.Target] = true
		dc := dashCell{CellAggregate: c, MeanFirstBug: "—", GTCoverage: "—", Chao1Pct: "—", DedupClasses: "—", DupRate: "—"}
		if c.FirstBug != nil {
			dc.MeanFirstBug = fmt.Sprintf("%.1f", c.FirstBug.Mean)
		}
		if cov := c.Coverage; cov != nil {
			dc.GTCoverage = fmt.Sprintf("%.1f%%", 100*cov.GoodTuringCoverage)
			dc.Chao1Pct = fmt.Sprintf("%.1f%%", 100*cov.ClassCoverage)
			dc.GrowthSVG = growthSVG(cov.Growth)
			if cov.Dedup != nil {
				dc.DedupClasses = fmt.Sprintf("%d", cov.Dedup.DistinctClasses)
				dc.DupRate = fmt.Sprintf("%.1f%%", 100*cov.Dedup.DuplicateRate)
			}
		}
		dc.SurvivalSVG = survivalSVG(c.Survival, c.Limit)
		data.Cells = append(data.Cells, dc)
	}
	data.Targets = len(targets)
	if snap := s.atlasSnapshot(); snap != nil {
		for _, c := range snap.Cells {
			data.AtlasCells = append(data.AtlasCells, dashAtlas{
				Target: c.Target, Algorithm: c.Algorithm,
				Schedules: c.Schedules, Decisions: c.Decisions, MaxDepth: c.MaxDepth,
				HeatmapSVG: template.HTML(atlas.HeatmapSVG(c)),
				DepthSVG:   template.HTML(atlas.DepthProfileSVG(c)),
			})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = dashTemplate.Execute(w, data)
}

// Chart geometry: a fixed viewBox with margins for axis labels. Charts are
// rendered server-side as inline SVG so the page needs no script to show
// data (the only script is the SSE live-refresh hook).
const (
	chartW, chartH   = 320.0, 170.0
	marginL, marginB = 42.0, 24.0
	marginT, marginR = 10.0, 12.0
)

func xScale(v, max float64) float64 {
	if max <= 0 {
		return marginL
	}
	return marginL + (chartW-marginL-marginR)*v/max
}

func yScale(v, max float64) float64 {
	if max <= 0 {
		return chartH - marginB
	}
	return chartH - marginB - float64((chartH-marginT-marginB)*v/max)
}

func fmtCoord(v float64) string { return strings.TrimSuffix(fmt.Sprintf("%.1f", v), ".0") }

// chartFrame opens an SVG with axes and y/x captions; the caller appends
// the data path and closes it.
func chartFrame(b *strings.Builder, title, xLabel, yLabel string) {
	fmt.Fprintf(b, `<svg viewBox="0 0 %g %g" class="chart" role="img" aria-label="%s">`, chartW, chartH, template.HTMLEscapeString(title))
	fmt.Fprintf(b, `<line class="axis" x1="%g" y1="%g" x2="%g" y2="%g"/>`, marginL, marginT, marginL, chartH-marginB)
	fmt.Fprintf(b, `<line class="axis" x1="%g" y1="%g" x2="%g" y2="%g"/>`, marginL, chartH-marginB, chartW-marginR, chartH-marginB)
	fmt.Fprintf(b, `<text class="lbl" x="%g" y="%g" text-anchor="middle">%s</text>`,
		(marginL+chartW-marginR)/2, chartH-4, template.HTMLEscapeString(xLabel))
	fmt.Fprintf(b, `<text class="lbl" x="12" y="%g" text-anchor="middle" transform="rotate(-90 12 %g)">%s</text>`,
		(marginT+chartH-marginB)/2, (marginT+chartH-marginB)/2, template.HTMLEscapeString(yLabel))
}

// survivalSVG renders the schedules-to-first-bug survival step function.
func survivalSVG(pts []SurvivalPoint, limit int) template.HTML {
	if len(pts) == 0 {
		return ""
	}
	maxX := float64(limit)
	if last := float64(pts[len(pts)-1].Schedules); last > maxX {
		maxX = last
	}
	var b strings.Builder
	chartFrame(&b, "survival curve", "schedules", "surviving")
	// y tick labels at 0 and 1
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">1</text>`, marginL-4, yScale(1, 1)+4)
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">0</text>`, marginL-4, yScale(0, 1)+4)
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">%d</text>`, chartW-marginR, chartH-marginB+14, int(maxX))
	// Step path: horizontal to each event time, then vertical drop.
	var p strings.Builder
	fmt.Fprintf(&p, "M%s %s", fmtCoord(xScale(0, maxX)), fmtCoord(yScale(pts[0].Surviving, 1)))
	prev := pts[0].Surviving
	for _, pt := range pts[1:] {
		fmt.Fprintf(&p, " H%s", fmtCoord(xScale(float64(pt.Schedules), maxX)))
		if pt.Surviving != prev {
			fmt.Fprintf(&p, " V%s", fmtCoord(yScale(pt.Surviving, 1)))
			prev = pt.Surviving
		}
	}
	fmt.Fprintf(&b, `<path class="line survival" d="%s"/>`, p.String())
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// growthSVG renders the interleaving-class union size per session.
func growthSVG(pts []AccumPoint) template.HTML {
	if len(pts) == 0 {
		return ""
	}
	maxX := float64(pts[len(pts)-1].Session)
	maxY := 0.0
	for _, pt := range pts {
		if y := float64(pt.Distinct); y > maxY {
			maxY = y
		}
	}
	var b strings.Builder
	chartFrame(&b, "interleaving-class growth", "sessions", "classes")
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">%d</text>`, marginL-4, yScale(maxY, maxY)+4, int(maxY))
	fmt.Fprintf(&b, `<text class="tick" x="%g" y="%g" text-anchor="end">%d</text>`, chartW-marginR, chartH-marginB+14, int(maxX))
	var coords []string
	// Anchor the curve at the origin: zero sessions, zero classes.
	coords = append(coords, fmtCoord(xScale(0, maxX))+","+fmtCoord(yScale(0, maxY)))
	for _, pt := range pts {
		coords = append(coords, fmtCoord(xScale(float64(pt.Session), maxX))+","+fmtCoord(yScale(float64(pt.Distinct), maxY)))
	}
	fmt.Fprintf(&b, `<polyline class="line growth" points="%s"/>`, strings.Join(coords, " "))
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// fmtSec renders a latency in seconds with a human unit (µs/ms/s).
func fmtSec(sec float64) string {
	switch {
	case sec <= 0:
		return "0"
	case sec < 0.001:
		return fmt.Sprintf("%.0fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.1fms", sec*1e3)
	default:
		return fmt.Sprintf("%.2fs", sec)
	}
}

// fmtMedian renders the fleet-median throughput, "—" until enough worker
// samples exist to take a median (a zero here means "no data", and the
// dashboard must never dress no-data up as a measured 0 schedules/s).
func fmtMedian(v float64) string {
	if v <= 0 {
		return "—"
	}
	return fmt.Sprintf("%.0f schedules/s", v)
}

var dashTemplate = template.Must(template.New("dash").Funcs(template.FuncMap{
	"mul100": func(v float64) float64 { return v * 100 },
	"sec":    fmtSec,
	"median": fmtMedian,
}).Parse(`<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>surw campaign</title>
<style>
 body { font: 14px/1.45 system-ui, sans-serif; margin: 1.5rem; color: #1a1d21; }
 h1 { font-size: 1.25rem; margin: 0 0 .25rem; }
 .meta { color: #5a6068; margin-bottom: 1rem; }
 .meta code { background: #f2f4f6; padding: 0 .3em; border-radius: 3px; }
 table { border-collapse: collapse; margin-bottom: 1.5rem; }
 th, td { padding: .3rem .7rem; border-bottom: 1px solid #e3e6ea; text-align: right; }
 th:first-child, td:first-child, th:nth-child(2), td:nth-child(2) { text-align: left; }
 th { color: #5a6068; font-weight: 600; }
 .cells { display: flex; flex-wrap: wrap; gap: 1.25rem; }
 .cell { border: 1px solid #e3e6ea; border-radius: 6px; padding: .75rem 1rem; }
 .cell h2 { font-size: 1rem; margin: 0 0 .5rem; }
 .chart { width: 320px; height: 170px; display: block; }
 .axis { stroke: #9aa1a9; stroke-width: 1; }
 .line { fill: none; stroke-width: 1.8; }
 .survival { stroke: #c0392b; }
 .growth { stroke: #2471a3; }
 .lbl { font-size: 10px; fill: #5a6068; }
 .tick { font-size: 9px; fill: #8a9098; }
 #live { color: #5a6068; font-size: .85rem; }
 .wk { font-size: .95rem; color: #5a6068; margin: 0 0 .5rem; font-weight: 600; }
 .err { background: #fdecea; border: 1px solid #e5b4ae; color: #8a2418; border-radius: 6px; padding: .5rem .8rem; margin-bottom: 1rem; }
 .health { border-radius: 6px; padding: .5rem .8rem; margin-bottom: 1rem; }
 .health.ok { background: #edf7ee; border: 1px solid #b7dcb9; color: #1f5c23; }
 .health.bad { background: #fdf3e7; border: 1px solid #e8c79a; color: #7a4c10; }
 .health ul { margin: .3rem 0 0 1.2rem; padding: 0; }
</style>
</head>
<body>
<h1>surw campaign</h1>
<p class="meta">store <code>{{.Dir}}</code> · {{.Agg.Sessions}} sessions across {{len .Agg.Cells}} cells ({{.Targets}} targets) · build {{.Build.Version}}
{{- with .Agg.Metrics}} · {{printf "%.0f" .SchedulesPerSec}} schedules/s live{{end}}
 · <span id="live">stored <span id="stored">{{.Agg.Sessions}}</span></span></p>

{{with .Agg.RemoteErr}}
<p class="err">remote status unavailable: {{.}}</p>
{{end}}

{{with .Agg.Remote}}
<h2 class="wk">distributed: {{.SessionsDone}}/{{.SessionsPlanned}} sessions · {{.InFlightLeases}} leases in flight · {{.PendingBatches}} batches pending · {{.LeaseExpiries}} expiries · {{.DuplicateResults}} duplicates</h2>
{{with .Health}}
{{if .Healthy}}<p class="health ok">fleet healthy · median {{median .FleetMedianSchedulesPerSec}}</p>
{{else}}<div class="health bad">fleet: {{.StaleWorkers}} stale workers · {{.SlowCells}} slow cells · {{.AgingLeases}} aging leases · median {{median .FleetMedianSchedulesPerSec}}
<ul>{{range .Issues}}<li><strong>{{.Kind}}</strong> {{.Subject}} — {{.Detail}}</li>{{end}}</ul>
</div>{{end}}
{{end}}
<table>
<tr><th>worker</th><th>leases</th><th>sessions</th><th>busy s</th><th>utilization</th><th>last seen</th></tr>
{{range .Workers}}<tr>
 <td>{{.Name}}</td><td>{{.Leases}}</td><td>{{.Sessions}}</td>
 <td>{{printf "%.1f" .BusySeconds}}</td><td>{{printf "%.0f%%" (mul100 .Utilization)}}</td>
 <td>{{printf "%.0fs ago" .SecondsSinceSeen}}</td>
</tr>{{end}}
</table>
{{with .Latencies}}
<table>
<tr><th>operation</th><th>count</th><th>p50</th><th>p95</th><th>p99</th></tr>
{{range .}}<tr>
 <td>{{.Op}}</td><td>{{.Count}}</td>
 <td>{{sec .P50}}</td><td>{{sec .P95}}</td><td>{{sec .P99}}</td>
</tr>{{end}}
</table>
{{end}}
{{end}}

<table>
<tr><th>target</th><th>algorithm</th><th>sessions</th><th>found</th><th>mean first-bug</th><th>interleavings</th><th>dedup classes</th><th>dup rate</th><th>GT coverage</th><th>Chao1 coverage</th></tr>
{{range .Cells}}<tr>
 <td>{{.Target}}</td><td>{{.Algorithm}}</td>
 <td>{{.SessionsStored}}</td><td>{{.Found}}</td><td>{{.MeanFirstBug}}</td>
 <td>{{with .Coverage}}{{.DistinctInterleavings}}{{else}}—{{end}}</td>
 <td>{{.DedupClasses}}</td><td>{{.DupRate}}</td>
 <td>{{.GTCoverage}}</td><td>{{.Chao1Pct}}</td>
</tr>{{end}}
</table>

<div class="cells">
{{range .Cells}}<div class="cell">
 <h2>{{.Target}} · {{.Algorithm}}</h2>
 {{.SurvivalSVG}}
 {{.GrowthSVG}}
</div>{{end}}
</div>

{{if .AtlasCells}}
<h2 class="wk">exploration atlas</h2>
<div class="cells">
{{range .AtlasCells}}<div class="cell">
 <h2>{{.Target}} · {{.Algorithm}}</h2>
 <p class="meta">{{.Schedules}} schedules · {{.Decisions}} decisions · depth {{.MaxDepth}}</p>
 {{.HeatmapSVG}}
 {{.DepthSVG}}
</div>{{end}}
</div>
{{end}}

<script>
(function () {
  var es = new EventSource('/events');
  es.addEventListener('session', function (e) {
    document.getElementById('stored').textContent = JSON.parse(e.data).stored;
  });
  es.addEventListener('cell', function () { location.reload(); });
})();
</script>
</body>
</html>
`))
