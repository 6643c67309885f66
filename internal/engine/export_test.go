package engine

// The planner's SGB cost constants, for the external planner-cost test, which
// prices the work a run counted in the cost model's own units.
const (
	CostDistComp    = costDistComp
	CostRectTest    = costRectTest
	CostWindowQuery = costWindowQuery
	CostGridProbe   = costGridProbe
)
