package campaign

// Discovery yield: how much is left to find in each cell. The score
// (Yields: /api/yield, the surw_yield_* gauges, the dashboard's yield
// panel) is a pure function of the record set, like every aggregate, and
// it is for a reader: it ranks cells, it steers nothing.

// Yield is one cell's discovery-yield estimate: how much is left to find
// there, on a [0,1] scale, decomposed into the three signals it is built
// from. A cell fresh out of the plan scores 1 (maximum uncertainty); a
// cell whose class stream has gone all-duplicates and whose survival
// curve went flat early scores near 0.
type Yield struct {
	// Score is the combined estimate in [0,1].
	Score float64 `json:"score"`
	// GTUnseen is the Good-Turing unseen-class mass of the class-unique
	// stream: the probability the next schedule lands in a class never
	// seen before.
	GTUnseen float64 `json:"gt_unseen"`
	// SurvivalSlope is the late-half drop of the no-bug survival curve:
	// S(T/2) − S(T). Cells still finding first bugs late in the budget
	// have headroom.
	SurvivalSlope float64 `json:"survival_slope"`
	// NewClassRate is the marginal new-class rate over the most recent
	// session relative to the cell's lifetime average — a trend term:
	// near 1 means discovery has not slowed, near 0 means it has dried up.
	NewClassRate float64 `json:"new_class_rate"`
}

// CellYield is one cell's discovery-yield estimate.
type CellYield struct {
	CellKey
	// SessionsStored mirrors the aggregate's session count.
	SessionsStored int `json:"sessions_stored"`
	// Samples is the size of the class stream the estimate is built on
	// (commutation classes when recorded, interleaving classes otherwise).
	Samples int `json:"samples"`
	// Scoreable reports whether the cell has enough data to score at all;
	// unscoreable cells render as "—", never as NaN or a fake zero.
	Scoreable bool `json:"scoreable"`
	// Yield is the score and its components.
	Yield Yield `json:"yield"`
}

// Yields scores every cell of the rollup.
func (a *Aggregates) Yields() []CellYield {
	out := make([]CellYield, 0, len(a.Cells))
	for _, c := range a.Cells {
		out = append(out, yieldOfCell(c))
	}
	return out
}

func yieldOfCell(c CellAggregate) CellYield {
	y := CellYield{CellKey: c.CellKey, SessionsStored: c.SessionsStored}
	if c.SessionsStored == 0 {
		return y
	}
	var gt float64
	var growth []AccumPoint
	switch {
	case c.Coverage != nil && c.Coverage.Dedup != nil && c.Coverage.Dedup.Samples > 0:
		dd := c.Coverage.Dedup
		gt, y.Samples, growth = dd.GoodTuringUnseen, dd.Samples, dd.Growth
	case c.Coverage != nil && c.Coverage.Samples > 0:
		cov := c.Coverage
		gt, y.Samples, growth = cov.GoodTuringUnseen, cov.Samples, cov.Growth
	default:
		// No class stream recorded: there is nothing to estimate unseen
		// mass from, so the cell is unscoreable (the survival component
		// alone would masquerade as a full score).
		return y
	}
	y.Scoreable = true
	slope, rate := LateSurvivalDrop(c.Survival), RecentNewRate(growth)
	y.Yield = Yield{Score: ScoreYield(gt, slope, rate), GTUnseen: gt, SurvivalSlope: slope, NewClassRate: rate}
	return y
}

// yieldWeights: unseen mass is the direct estimator of the quantity we
// care about and dominates; the survival slope and the discovery trend
// are corrections for bug-finding and saturation dynamics.
const (
	wUnseen   = 0.5
	wSurvival = 0.25
	wTrend    = 0.25
)

// ScoreYield combines the three component signals (each clamped to
// [0,1]) into the final score.
func ScoreYield(gtUnseen, survivalSlope, newClassRate float64) float64 {
	return wUnseen*clamp01(gtUnseen) + wSurvival*clamp01(survivalSlope) + wTrend*clamp01(newClassRate)
}

// LateSurvivalDrop measures S(mid) − S(end) of a no-bug survival curve:
// the fraction of sessions whose first bug arrived in the second half of
// the budget. Returns 0 for empty or degenerate curves.
func LateSurvivalDrop(curve []SurvivalPoint) float64 {
	n := len(curve)
	if n == 0 || curve[n-1].Schedules <= 0 {
		return 0
	}
	end := curve[n-1].Schedules
	mid := curve[0].Surviving
	for _, p := range curve {
		if p.Schedules <= end/2 {
			mid = p.Surviving
		}
	}
	return clamp01(mid - curve[n-1].Surviving)
}

// RecentNewRate compares the marginal new-class discovery rate over the
// most recent step of a class-growth curve to its lifetime average.
// Returns 1 (no evidence of slowdown) when the curve has fewer than two
// points, 0 when the last step found nothing new.
func RecentNewRate(growth []AccumPoint) float64 {
	n := len(growth)
	if n < 2 {
		return 1
	}
	last, prev := growth[n-1], growth[n-2]
	if last.Session <= 0 || last.Distinct <= 0 || last.Session <= prev.Session {
		return 1
	}
	recent := float64(last.Distinct-prev.Distinct) / float64(last.Session-prev.Session)
	avg := float64(last.Distinct) / float64(last.Session)
	return clamp01(recent / avg)
}

func clamp01(x float64) float64 {
	switch {
	case x < 0 || x != x: // NaN guards to 0
		return 0
	case x > 1:
		return 1
	}
	return x
}
