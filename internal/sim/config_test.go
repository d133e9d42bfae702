package sim

import "testing"

func TestConfigByName(t *testing.T) {
	for _, c := range []struct {
		name, want string
	}{
		{"", "MegaBoom"},
		{"mega", "MegaBoom"},
		{"MEGA", "MegaBoom"},
		{"megaboom", "MegaBoom"},
		{"MegaBoom", "MegaBoom"},
		{"small", "SmallBoom"},
		{"Small", "SmallBoom"},
		{"smallboom", "SmallBoom"},
		{"SMALLBOOM", "SmallBoom"},
	} {
		cfg, err := ConfigByName(c.name)
		if err != nil || cfg.Name != c.want {
			t.Errorf("ConfigByName(%q) = %q, %v; want %q", c.name, cfg.Name, err, c.want)
		}
	}
	for _, bad := range []string{"huge", "mega ", "boom", "smallmega"} {
		if _, err := ConfigByName(bad); err == nil {
			t.Errorf("ConfigByName(%q) accepted", bad)
		}
	}
}
