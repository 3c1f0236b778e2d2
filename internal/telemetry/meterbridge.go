package telemetry

import (
	"reflect"

	"cachecost/internal/meter"
)

// RegisterMeter installs a pull collector exposing a meter's component
// busy-time, memory levels and op counts, and its window's path counts as
// one meter.path counter family labelled count=<PathStats field>. The
// meter's own atomics are read only at scrape time, so bridging adds
// nothing to the metered hot paths. Registered under a fixed name so
// experiment drivers that build a fresh meter per cell can re-bridge
// without accumulating dead collectors.
func RegisterMeter(reg *Registry, name string, m *meter.Meter) {
	if reg == nil || m == nil {
		return
	}
	reg.RegisterCollector(name, func(emit func(Sample)) {
		for _, cs := range m.Snapshot() {
			lbl := []Label{L("component", cs.Name)}
			emit(Sample{Name: "meter.busy_seconds", Labels: lbl, Kind: KindCounter, Value: cs.Busy.Seconds()})
			emit(Sample{Name: "meter.ops", Labels: lbl, Kind: KindCounter, Value: float64(cs.Ops)})
			if cs.MemBytes != 0 {
				emit(Sample{Name: "meter.mem_bytes", Labels: lbl, Kind: KindGauge, Value: float64(cs.MemBytes)})
			}
		}
		p := reflect.ValueOf(m.Path())
		for i := 0; i < p.NumField(); i++ {
			emit(Sample{Name: "meter.path", Labels: []Label{L("count", p.Type().Field(i).Name)},
				Kind: KindCounter, Value: float64(p.Field(i).Int())})
		}
	})
}
