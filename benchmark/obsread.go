package main

import (
	"bytes"
	"encoding/json"

	"securekeeper/internal/obs"
)

// histo is a histogram's running totals. Time histograms sum seconds.
type histo struct {
	count, sum float64
}

// meanMicros is the mean observation of a time histogram in µs.
func (h histo) meanMicros() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count * 1e6
}

// scraped is one reading of the program's own metrics registries, by
// metric name; label sets of one name are added together. The registry
// has no lookup by name, so a reading goes through its JSON dump.
type scraped struct {
	values map[string]float64
	histos map[string]histo
}

func scrape(regs ...*obs.Registry) scraped {
	s := scraped{values: map[string]float64{}, histos: map[string]histo{}}
	for _, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			continue
		}
		var dump []struct {
			Name  string   `json:"name"`
			Value *float64 `json:"value"`
			Count *float64 `json:"count"`
			Sum   *float64 `json:"sum"`
		}
		if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
			continue
		}
		for _, m := range dump {
			switch {
			case m.Value != nil:
				s.values[m.Name] += *m.Value
			case m.Count != nil && m.Sum != nil:
				h := s.histos[m.Name]
				h.count += *m.Count
				h.sum += *m.Sum
				s.histos[m.Name] = h
			}
		}
	}
	return s
}

func (s scraped) value(name string) float64 { return s.values[name] }

func (s scraped) histogram(name string) histo { return s.histos[name] }

// since returns what accumulated between the earlier reading and s.
func (s scraped) since(earlier scraped) scraped {
	d := scraped{values: map[string]float64{}, histos: map[string]histo{}}
	for k, v := range s.values {
		d.values[k] = v - earlier.values[k]
	}
	for k, h := range s.histos {
		e := earlier.histos[k]
		d.histos[k] = histo{count: h.count - e.count, sum: h.sum - e.sum}
	}
	return d
}
