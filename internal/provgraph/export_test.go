package provgraph

import "math"

// ForgetUnackedBounds lowers every node's bound on its unacked send times,
// so the next event scans the node's unacked sends in full, as if the skip
// the bound allows did not exist.
func ForgetUnackedBounds(b *Builder) {
	for node := range b.unackedLow {
		b.unackedLow[node] = math.MinInt64
	}
}
