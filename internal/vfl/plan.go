// Package vfl implements the GTV vertical-federated-learning runtime: the
// neural-network partition plans (D^{n3}_{n4} G^{n1}_{n2} in the paper's
// notation), the feature-ratio vector P_r with its width-splitting rules,
// the shared-seed shuffle coordination that implements
// training-with-shuffling, the client and server roles of Algorithm 1, and
// gtvwire, the binary TCP transport for running clients in separate
// processes.
//
// Invariants enforced by every plan (see DESIGN.md §2):
//   - the generator's output FC always lives on the client, so synthetic
//     columns materialize only at their owner;
//   - the discriminator's input FC always lives on the client, so raw rows
//     never leave their owner;
//   - the discriminator's score FC always lives on the server, so
//     cross-client correlations are judged jointly.
package vfl

import (
	"fmt"
)

// Plan is a neural-network partition between server and clients. Counts are
// trunk blocks only: the boundary FC layers required by the privacy
// invariants exist regardless of the plan.
type Plan struct {
	// DiscServer (n3) and DiscClient (n4) are FN-block counts of the
	// discriminator on the server and on each client.
	DiscServer, DiscClient int
	// GenServer (n1) and GenClient (n2) are residual-block counts of the
	// generator on the server and on each client.
	GenServer, GenClient int
}

// Validate checks the plan's block counts.
func (p Plan) Validate() error {
	if p.DiscServer < 0 || p.DiscClient < 0 || p.GenServer < 0 || p.GenClient < 0 {
		return fmt.Errorf("vfl: negative block count in plan %s", p.Name())
	}
	return nil
}

// Name renders the paper's notation, e.g. D2_0G0_2 for
// "2 FN blocks on the server, 0 per client; 0 RN blocks on the server,
// 2 per client".
func (p Plan) Name() string {
	return fmt.Sprintf("D%d_%dG%d_%d", p.DiscServer, p.DiscClient, p.GenServer, p.GenClient)
}

// ParsePlan parses the Name form back into a Plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if _, err := fmt.Sscanf(s, "D%d_%dG%d_%d", &p.DiscServer, &p.DiscClient, &p.GenServer, &p.GenClient); err != nil {
		return Plan{}, fmt.Errorf("vfl: cannot parse plan %q: %w", s, err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// StandardPlans returns the paper's nine partition combinations: the three
// discriminator divisions {2_0, 1_1, 0_2} crossed with the three generator
// divisions, all with two trunk blocks in total.
func StandardPlans() []Plan {
	divs := [][2]int{{2, 0}, {1, 1}, {0, 2}}
	out := make([]Plan, 0, 9)
	for _, d := range divs {
		for _, g := range divs {
			out = append(out, Plan{DiscServer: d[0], DiscClient: d[1], GenServer: g[0], GenClient: g[1]})
		}
	}
	return out
}

// Ratios returns the paper's P_r vector: each client's feature count over
// the total.
func Ratios(featureCounts []int) ([]float64, error) {
	if len(featureCounts) == 0 {
		return nil, fmt.Errorf("vfl: no clients")
	}
	total := 0
	for i, c := range featureCounts {
		if c <= 0 {
			return nil, fmt.Errorf("vfl: client %d has %d features", i, c)
		}
		total += c
	}
	out := make([]float64, len(featureCounts))
	for i, c := range featureCounts {
		out[i] = float64(c) / float64(total)
	}
	return out, nil
}

// SplitWidths divides total units across clients proportionally to the
// ratio vector, guaranteeing every client at least one unit and an exact
// sum, using the largest-remainder method.
func SplitWidths(total int, ratios []float64) ([]int, error) {
	n := len(ratios)
	if n == 0 {
		return nil, fmt.Errorf("vfl: no ratios")
	}
	if total < n {
		return nil, fmt.Errorf("vfl: cannot split %d units across %d clients", total, n)
	}
	widths := make([]int, n)
	remainders := make([]float64, n)
	assigned := 0
	for i, r := range ratios {
		exact := r * float64(total)
		widths[i] = int(exact)
		remainders[i] = exact - float64(widths[i])
		assigned += widths[i]
	}
	// Distribute leftovers by largest remainder.
	for assigned < total {
		best := 0
		for i := 1; i < n; i++ {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		widths[best]++
		remainders[best] = -1
		assigned++
	}
	// Enforce the >=1 floor by stealing from the widest client.
	for i := range widths {
		for widths[i] < 1 {
			widest := 0
			for j := range widths {
				if widths[j] > widths[widest] {
					widest = j
				}
			}
			if widths[widest] <= 1 {
				return nil, fmt.Errorf("vfl: cannot give every client a positive width from %d units", total)
			}
			widths[widest]--
			widths[i]++
		}
	}
	return widths, nil
}
