package stats

import (
	"math"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("Value() = %d, want 10", c.Value())
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	if u.Ratio() != 0 {
		t.Errorf("empty utilization ratio = %v, want 0", u.Ratio())
	}
	u.Total.Add(100)
	u.Busy.Add(3)
	if got := u.Ratio(); math.Abs(got-0.03) > 1e-12 {
		t.Errorf("Ratio() = %v, want 0.03", got)
	}
}
