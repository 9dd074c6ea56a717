package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// The shadow structs and encoding/json parse functions below are the
// reference decoders for the three record formats: the record decoder
// must accept what they accept and return the same records and seqs,
// except that it rejects a line repeating a known key
// (TestRecordDecodersMatchEncodingJSON, FuzzRecordDecoders).

// eventJSON is the decode-side shadow of an event record line.
type eventJSON struct {
	Seq    uint64  `json:"seq"`
	TUS    int64   `json:"t_us"`
	Kind   string  `json:"kind"`
	Server int32   `json:"server"`
	Pool   string  `json:"pool"`
	MHz    float64 `json:"mhz"`
	Value  float64 `json:"value"`
	Reason string  `json:"reason"`
	Label  string  `json:"label"`
}

// parseEventLineJSON is the reference for parseEventLine.
func parseEventLineJSON(raw []byte) (Event, uint64, error) {
	ej := eventJSON{Server: -1}
	if err := json.Unmarshal(raw, &ej); err != nil {
		return Event{}, 0, err
	}
	kind, ok := ParseKind(ej.Kind)
	if !ok {
		return Event{}, 0, fmt.Errorf("unknown kind %q", ej.Kind)
	}
	return Event{
		At:     time.Duration(ej.TUS) * time.Microsecond,
		Kind:   kind,
		Server: ej.Server,
		Pool:   poolCodeJSON(ej.Pool),
		MHz:    ej.MHz,
		Value:  ej.Value,
		Reason: ej.Reason,
		Label:  ej.Label,
	}, ej.Seq, nil
}

func poolCodeJSON(name string) int8 {
	switch name {
	case "low":
		return PoolLow
	case "high":
		return PoolHigh
	}
	return PoolNone
}

// spanJSON is the decode-side shadow of a span record line.
type spanJSON struct {
	Seq       uint64  `json:"seq"`
	Req       int64   `json:"req"`
	ID        int32   `json:"id"`
	Parent    int32   `json:"parent"`
	Kind      string  `json:"kind"`
	StartUS   int64   `json:"start_us"`
	EndUS     int64   `json:"end_us"`
	Server    int32   `json:"server"`
	Pool      string  `json:"pool"`
	Class     string  `json:"class"`
	Tokens    int32   `json:"tokens"`
	Recompute bool    `json:"recompute"`
	Preempts  int32   `json:"preempts"`
	EnergyJ   float64 `json:"energy_j"`
	CapSec    float64 `json:"cap_s"`
	CapJ      float64 `json:"cap_j"`
	TTFTSec   float64 `json:"ttft_s"`
	Reason    string  `json:"reason"`
	Retry     int32   `json:"retry"`
	Session   int64   `json:"session"`
	Turn      int32   `json:"turn"`
}

// parseSpanLineJSON is the reference for parseSpanLine.
func parseSpanLineJSON(raw []byte) (Span, uint64, error) {
	sj := spanJSON{Server: -1, Pool: "", TTFTSec: -1}
	if err := json.Unmarshal(raw, &sj); err != nil {
		return Span{}, 0, err
	}
	kind, ok := ParseSpanKind(sj.Kind)
	if !ok {
		return Span{}, 0, fmt.Errorf("unknown kind %q", sj.Kind)
	}
	return Span{
		Req:       sj.Req,
		ID:        sj.ID,
		Parent:    sj.Parent,
		Kind:      kind,
		Start:     time.Duration(sj.StartUS) * time.Microsecond,
		End:       time.Duration(sj.EndUS) * time.Microsecond,
		Server:    sj.Server,
		Pool:      poolCodeJSON(sj.Pool),
		Class:     sj.Class,
		Tokens:    sj.Tokens,
		Recompute: sj.Recompute,
		Preempts:  sj.Preempts,
		EnergyJ:   sj.EnergyJ,
		CapSec:    sj.CapSec,
		CapJ:      sj.CapJ,
		TTFTSec:   sj.TTFTSec,
		Reason:    sj.Reason,
		Retry:     sj.Retry,
		Session:   sj.Session,
		Turn:      sj.Turn,
	}, sj.Seq, nil
}

// decisionJSON is the decode-side shadow of a decision record line. Util is a
// pointer so Delivered survives the round trip ("util" present iff a
// reading was delivered — 0.0 is a legitimate reading).
type decisionJSON struct {
	Seq          uint64      `json:"seq"`
	TUS          int64       `json:"t_us"`
	Kind         string      `json:"kind"`
	TrueUtil     float64     `json:"true_util"`
	Util         *float64    `json:"util"`
	Lost         bool        `json:"lost"`
	Down         bool        `json:"down"`
	Missed       bool        `json:"missed"`
	Reset        bool        `json:"reset"`
	Braked       bool        `json:"braked"`
	BrakePending bool        `json:"brake_pending"`
	WD           bool        `json:"wd"`
	FailSafe     bool        `json:"failsafe"`
	Stage        int8        `json:"stage"`
	LPMHz        float64     `json:"lp_mhz"`
	HPMHz        float64     `json:"hp_mhz"`
	LPBusy       int32       `json:"lp_busy"`
	HPBusy       int32       `json:"hp_busy"`
	LPW          float64     `json:"lp_w"`
	HPW          float64     `json:"hp_w"`
	Req          int64       `json:"req"`
	Class        string      `json:"class"`
	Pri          int8        `json:"pri"`
	Retry        int32       `json:"retry"`
	Session      int64       `json:"session"`
	Prefix       int32       `json:"prefix"`
	Chosen       int32       `json:"chosen"`
	Eps          [][]float64 `json:"eps"`
}

// parseDecisionLineJSON is the reference for parseDecisionLine.
func parseDecisionLineJSON(raw []byte, cands []RouteCandidate) (Decision, []RouteCandidate, uint64, error) {
	dj := decisionJSON{Chosen: -1}
	if err := json.Unmarshal(raw, &dj); err != nil {
		return Decision{}, cands, 0, err
	}
	kind, ok := ParseDecisionKind(dj.Kind)
	if !ok {
		return Decision{}, cands, 0, fmt.Errorf("unknown kind %q", dj.Kind)
	}
	d := Decision{
		At:   time.Duration(dj.TUS) * time.Microsecond,
		Kind: kind,
	}
	switch kind {
	case DecTick:
		d.TrueUtil = dj.TrueUtil
		if dj.Util != nil {
			d.Delivered = true
			d.Reading = *dj.Util
		}
		d.Lost, d.Down, d.Missed, d.Reset = dj.Lost, dj.Down, dj.Missed, dj.Reset
		d.Braked, d.BrakePending = dj.Braked, dj.BrakePending
		d.Watchdog, d.FailSafe, d.Stage = dj.WD, dj.FailSafe, dj.Stage
		d.LPDesiredMHz, d.HPDesiredMHz = dj.LPMHz, dj.HPMHz
		d.LPBusy, d.HPBusy = dj.LPBusy, dj.HPBusy
		d.LPWatts, d.HPWatts = dj.LPW, dj.HPW
	case DecRoute:
		d.ReqID, d.Class, d.Pri = dj.Req, dj.Class, dj.Pri
		d.Retry, d.Session, d.Prefix = dj.Retry, dj.Session, dj.Prefix
		d.Chosen = dj.Chosen
		d.EpOff = int32(len(cands))
		d.EpLen = int32(len(dj.Eps))
		for i, ep := range dj.Eps {
			if len(ep) != 4 {
				return Decision{}, cands, 0, fmt.Errorf("eps[%d]: want 4 elements, got %d", i, len(ep))
			}
			cands = append(cands, RouteCandidate{
				Server:    int32(ep[0]),
				Load:      int32(ep[1]),
				KVFrac:    ep[2],
				CappedMHz: ep[3],
			})
		}
	}
	return d, cands, dj.Seq, nil
}
