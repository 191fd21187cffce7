package pathnoise

// The chain arithmetic, exposed to the external test package so it can
// rebuild every stage's inputs from the journaled handoffs.
var (
	DerivedSlew  = derivedSlew
	StageInput   = stageInput
	StageWindow  = stageWindow
	InputArrival = inputArrival
)
