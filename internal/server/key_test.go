package server

import (
	"testing"

	"dpals"
)

// TestCacheKeyGolden pins the exact alsd-key-v2 cache key of three fixed
// jobs. The other cache-key tests only check which keys are equal or
// differ; this one fails on any change to the key derivation or to what
// parsing and resolving a request yields, so a key change can only ever
// be a deliberate version bump.
func TestCacheKeyGolden(t *testing.T) {
	mult := circuitAIGER(t, dpals.NewMultiplier(3, 3, false))
	adder := circuitAIGER(t, dpals.NewAdder(4))
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{
			name: "default-er",
			req:  JobRequest{Circuit: mult, Metric: "er", Threshold: 0.05},
			want: "9a4f2355953f040174eeefafd2cc543e16cfdf7b8a3c9063f0805ac66c6371c3",
		},
		{
			name: "sasimi-seed7",
			req: JobRequest{Circuit: mult, Flow: "dp", Metric: "mse", Threshold: 4,
				Seed: 7, Patterns: 512, UseSASIMILACs: true},
			want: "2f0b70068fb727717897fe9f74702d8a45aefe45994bd65988f67fd0bd643cf9",
		},
		{
			name: "wce-cert-knobs",
			req: JobRequest{Circuit: adder, Flow: "dp", Metric: "wce", WCEBound: 3,
				CertEvery: 4, CertConflictLimit: 100000, Patterns: 512},
			want: "ba6f46767798deb2029095cabfd75aec3f696fb0b50cb9628045dc53409d3a44",
		},
	}
	for _, tc := range cases {
		c, opt, err := parseJob(&tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cacheKey(c, opt); got != tc.want {
			t.Errorf("%s: cache key %s, want %s", tc.name, got, tc.want)
		}
	}
}
