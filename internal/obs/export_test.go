package obs

import "sort"

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// MissingHelp returns the metric families that would scrape out with the
// fallback description: every registered series' family, plus every family
// the collectors produce at this instant, minus the families SetHelp has
// covered. Sorted, empty when the surface is fully documented.
func (r *Registry) MissingHelp() []string {
	r.mu.Lock()
	names := make(map[string]bool)
	for _, m := range r.meta {
		names[m.name] = true
	}
	collectors := append([]func() []Sample(nil), r.collectors...)
	help := make(map[string]bool, len(r.help))
	for n := range r.help {
		help[n] = true
	}
	r.mu.Unlock()
	for _, fn := range collectors {
		for _, s := range fn() {
			names[s.Name] = true
		}
	}
	var missing []string
	for n := range names {
		if !help[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	return missing
}
