package mem

import (
	"reflect"
	"testing"
)

// pointKeyCoveredFields is the audited list of Config fields the
// calibration memo's point key accounts for. pointKey embeds the whole
// Config value, so TODAY every field is covered by construction — this
// test exists for the day someone adds a Config field (or narrows
// pointKey to a subset): it fails until the new field is added here,
// and the perturbation pass below proves the key actually
// distinguishes it.
var pointKeyCoveredFields = []string{
	"Channels", "RanksPerChannel", "BanksPerRank", "RowBytes", "LineBytes",
	"TCAS", "TRCD", "TRP", "TBurst", "TFrontEnd",
	"FrontJitter", "HitStreakCap", "MaxOutstanding", "ThinkTime",
	"TREFI", "TRFC", "Seed",
}

// perturb bumps one Config field to a distinct valid-typed value.
func perturb(cfg Config, field string) Config {
	v := reflect.ValueOf(&cfg).Elem().FieldByName(field)
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		panic("unhandled Config field kind " + v.Kind().String())
	}
	return cfg
}

// TestCalibrationCacheKeyCoversEveryConfigField fails when Config
// grows a field the point-key audit has not seen, and proves each
// audited field separates pointKey.
func TestCalibrationCacheKeyCoversEveryConfigField(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	covered := make(map[string]bool, len(pointKeyCoveredFields))
	for _, f := range pointKeyCoveredFields {
		if _, ok := typ.FieldByName(f); !ok {
			t.Errorf("audited field %q no longer exists in mem.Config; prune the audit list", f)
		}
		covered[f] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !covered[name] {
			t.Errorf("mem.Config field %q is not in the calibration point-key audit: "+
				"confirm pointKey distinguishes it, then add it to pointKeyCoveredFields", name)
		}
	}
	if t.Failed() {
		return
	}

	base := pointKey{cfg: DDR3_1066(), k: 4, tasksPerStream: 6, footprint: footprint512K}
	for _, field := range pointKeyCoveredFields {
		mod := base
		mod.cfg = perturb(base.cfg, field)
		if mod == base {
			t.Errorf("perturbing Config.%s does not change pointKey: the memo would serve a stale point", field)
		}
	}
}
