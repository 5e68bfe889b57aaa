package advisor

// RefMarginalSavings exposes the per-finding reference to the external
// test package, which profiles real workloads through core (core imports
// this package, so those tests cannot live inside it).
var RefMarginalSavings = refMarginalSavings
