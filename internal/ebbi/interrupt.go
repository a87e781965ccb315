package ebbi

import (
	"fmt"
	"math"
)

// EventInterruptModel quantifies the operating mode the paper argues
// against (Section II-A): the NVS raises a processor interrupt per event
// (or per small event batch). Because background-activity noise fires
// continuously across the array, the processor is woken at the noise rate
// even in an empty scene — "using the NVS events as interrupts would
// rarely allow the processor to sleep".
type EventInterruptModel struct {
	// EventRateHz is the total event rate presented to the processor
	// (noise + scene); an empty surveilled scene still sees
	// NoiseRatePerPixelHz * pixels.
	EventRateHz float64
	// WakeOverheadUS is the cost of each wake-up (context restore, PLL
	// settle); tens of microseconds on IoT-class MCUs.
	WakeOverheadUS float64
	// HandlingUS is the per-event processing time once awake.
	HandlingUS float64
	// BatchSize amortises a wake-up over this many events when the sensor
	// FIFO batches interrupts (1 = wake per event).
	BatchSize int
	// ActivePowerMW and SleepPowerMW mirror DutyCycle's power model.
	ActivePowerMW, SleepPowerMW float64
}

// Analyze returns the duty-cycle report of the event-interrupt mode: the
// awake fraction is the fraction of time spent in wake-up overhead plus
// event handling, saturating at 1 when the event rate outruns the
// processor.
func (m EventInterruptModel) Analyze() (Report, error) {
	if m.EventRateHz < 0 {
		return Report{}, fmt.Errorf("ebbi: negative event rate %v", m.EventRateHz)
	}
	if m.WakeOverheadUS < 0 || m.HandlingUS < 0 {
		return Report{}, fmt.Errorf("ebbi: negative timing parameters")
	}
	batch := float64(m.BatchSize)
	if batch < 1 {
		batch = 1
	}
	// Per second: EventRateHz/batch wake-ups, each costing WakeOverheadUS,
	// plus EventRateHz * HandlingUS of processing.
	busyUSPerSec := float64(m.EventRateHz/batch*m.WakeOverheadUS) + float64(m.EventRateHz*m.HandlingUS)
	awake := math.Min(busyUSPerSec/1e6, 1)
	sleep := 1 - awake
	avg := float64(m.ActivePowerMW*awake) + float64(m.SleepPowerMW*sleep)
	rep := Report{
		SleepFraction:   sleep,
		AvgPowerMW:      avg,
		AlwaysOnPowerMW: m.ActivePowerMW,
	}
	if avg > 0 {
		rep.Savings = m.ActivePowerMW / avg
	}
	return rep, nil
}

// CompareModes contrasts the timer-interrupt EBBI mode with the
// event-interrupt mode for the same sensor noise environment, returning
// (ebbiReport, eventReport). The comparison quantifies the paper's Fig. 2
// argument: at realistic noise rates the event-interrupt processor spends
// most of its time awake while the EBBI processor sleeps through all of it.
func CompareModes(dc DutyCycle, activeUS int64, ev EventInterruptModel) (Report, Report, error) {
	ebbiRep, err := dc.Analyze(activeUS)
	if err != nil {
		return Report{}, Report{}, err
	}
	evRep, err := ev.Analyze()
	if err != nil {
		return Report{}, Report{}, err
	}
	return ebbiRep, evRep, nil
}
