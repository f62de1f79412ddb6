package datagen

import (
	"testing"
	"time"

	"turbo/internal/behavior"
)

func tinyWorld(t *testing.T) *Dataset {
	t.Helper()
	return Generate(Tiny())
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Tiny())
	b := Generate(Tiny())
	if len(a.Logs) != len(b.Logs) || len(a.Users) != len(b.Users) {
		t.Fatal("same seed produced different sizes")
	}
	for i := range a.Logs {
		if a.Logs[i] != b.Logs[i] {
			t.Fatalf("log %d differs", i)
		}
	}
	for i := range a.Users {
		if a.Users[i].Fraud != b.Users[i].Fraud || !a.Users[i].AppTime.Equal(b.Users[i].AppTime) {
			t.Fatalf("user %d differs", i)
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	cfg := Tiny()
	cfg.Seed = 123
	a := Generate(Tiny())
	b := Generate(cfg)
	same := 0
	for i := range a.Users {
		if a.Users[i].Fraud == b.Users[i].Fraud {
			same++
		}
	}
	if same == len(a.Users) {
		t.Fatal("different seeds produced identical label assignment")
	}
}

func TestFraudCountMatchesRatio(t *testing.T) {
	d := tinyWorld(t)
	want := int(float64(d.Config.Users)*d.Config.FraudRatio + 0.5)
	if d.Positives() != want {
		t.Fatalf("positives %d want %d", d.Positives(), want)
	}
}

func TestUserIDsArePositional(t *testing.T) {
	d := tinyWorld(t)
	for i := range d.Users {
		if int(d.Users[i].ID) != i {
			t.Fatalf("user %d has ID %d", i, d.Users[i].ID)
		}
	}
	if d.UserByID(5) == nil || d.UserByID(behavior.UserID(len(d.Users))) != nil {
		t.Fatal("UserByID bounds wrong")
	}
}

func TestLogsWithinObservationWindow(t *testing.T) {
	d := tinyWorld(t)
	for _, l := range d.Logs {
		if l.Time.Before(d.Start) || l.Time.After(d.End) {
			t.Fatalf("log outside window: %v not in [%v, %v]", l.Time, d.Start, d.End)
		}
		if !l.Type.Valid() {
			t.Fatalf("invalid log type %d", l.Type)
		}
	}
}

func TestFeatureDimensions(t *testing.T) {
	d := tinyWorld(t)
	for i := range d.Users {
		u := &d.Users[i]
		if len(u.Profile) != len(ProfileFeatureNames()) {
			t.Fatalf("profile dims %d", len(u.Profile))
		}
		if len(u.Txn) != len(TxnFeatureNames()) {
			t.Fatalf("txn dims %d", len(u.Txn))
		}
		if len(u.Features()) != NumFeatures() {
			t.Fatalf("combined dims %d", len(u.Features()))
		}
	}
}

// TestFraudBurstProperty: fraudsters' logs concentrate near application
// time, normal users' spread out (the Fig. 4a/b generative assumption).
func TestFraudBurstProperty(t *testing.T) {
	d := tinyWorld(t)
	store := d.Store()
	burstShare := func(u *User) float64 {
		logs := store.UserLogs(u.ID)
		if len(logs) == 0 {
			return 0
		}
		in := 0
		for _, l := range logs {
			dt := l.Time.Sub(u.AppTime)
			if dt < 0 {
				dt = -dt
			}
			if dt <= d.Config.FraudBurst+2*time.Hour {
				in++
			}
		}
		return float64(in) / float64(len(logs))
	}
	var fraudSum, fraudN, normSum, normN float64
	for i := range d.Users {
		u := &d.Users[i]
		if u.Fraud && u.Ring >= 0 {
			fraudSum += burstShare(u)
			fraudN++
		} else if !u.Fraud {
			normSum += burstShare(u)
			normN++
		}
	}
	fraudMean, normMean := fraudSum/fraudN, normSum/normN
	// Fraud accounts carry genuine background history (stolen/packaged
	// identities), so the burst share is well below 1 — but it must
	// dominate the class contrast.
	if fraudMean < 0.55 {
		t.Fatalf("ring fraudsters should burst near application: %v", fraudMean)
	}
	if normMean > 0.7 {
		t.Fatalf("normal users too bursty: %v", normMean)
	}
	if fraudMean < normMean+0.15 {
		t.Fatalf("burst contrast too weak: fraud %v vs normal %v", fraudMean, normMean)
	}
}

// TestRingMembersShareDeviceKeys: non-careful ring members co-occur on
// DeviceID values (the homophily assumption).
func TestRingMembersShareDeviceKeys(t *testing.T) {
	d := tinyWorld(t)
	store := d.Store()
	// Map ring -> set of users seen per ring device key.
	shared := 0
	store.ForEachKey(func(k behavior.Key, logs []behavior.Log) {
		if k.Type != behavior.DeviceID {
			return
		}
		users := map[behavior.UserID]bool{}
		for _, l := range logs {
			users[l.User] = true
		}
		if len(users) >= 2 {
			// Check all sharers belong to the same ring for ring-dev keys.
			rings := map[int]bool{}
			for u := range users {
				rings[d.Users[int(u)].Ring] = true
			}
			if len(rings) == 1 {
				for r := range rings {
					if r >= 0 {
						shared++
					}
				}
			}
		}
	})
	if shared == 0 {
		t.Fatal("no ring-shared devices found")
	}
}

func TestDefaultersLookNormal(t *testing.T) {
	cfg := Tiny()
	cfg.DefaulterFrac = 0.5
	d := Generate(cfg)
	defaulters := 0
	for i := range d.Users {
		u := &d.Users[i]
		if u.Fraud && u.Ring == -1 && u.Clean {
			defaulters++
		}
	}
	if defaulters == 0 {
		t.Fatal("expected some defaulters with clean profiles and no ring")
	}
}

func TestSoloFraudHaveNoRing(t *testing.T) {
	d := tinyWorld(t)
	solos := 0
	for i := range d.Users {
		if d.Users[i].Fraud && d.Users[i].Ring == -1 {
			solos++
		}
	}
	// Solo + defaulters both have ring -1.
	minWant := int(float64(d.Positives()) * (d.Config.SoloFraudFrac + d.Config.DefaulterFrac) * 0.5)
	if solos < minWant {
		t.Fatalf("ring-less fraud %d below expectation %d", solos, minWant)
	}
}

func TestCleanFraudFeaturesResembleNormal(t *testing.T) {
	cfg := Tiny()
	cfg.Users = 2000
	cfg.CleanProfileFrac = 0.5
	d := Generate(cfg)
	meanCredit := func(filter func(*User) bool) float64 {
		var s, n float64
		for i := range d.Users {
			if filter(&d.Users[i]) {
				s += d.Users[i].Profile[1]
				n++
			}
		}
		return s / n
	}
	normal := meanCredit(func(u *User) bool { return !u.Fraud })
	clean := meanCredit(func(u *User) bool { return u.Fraud && u.Clean })
	dirty := meanCredit(func(u *User) bool { return u.Fraud && !u.Clean })
	if normal-clean > 25 {
		t.Fatalf("clean fraud credit too low: normal %v vs clean %v", normal, clean)
	}
	if normal-dirty < 25 {
		t.Fatalf("dirty fraud credit not separated: normal %v vs dirty %v", normal, dirty)
	}
}

func TestD2MostlyPositive(t *testing.T) {
	cfg := D2(400)
	d := Generate(cfg)
	ratio := float64(d.Positives()) / float64(len(d.Users))
	if ratio < 0.85 || ratio > 0.98 {
		t.Fatalf("D2 positive ratio %v, want ~0.92", ratio)
	}
}

func TestD1FullConfigMatchesTable2(t *testing.T) {
	cfg := D1Full()
	if cfg.Users != 67072 {
		t.Fatalf("D1 users %d", cfg.Users)
	}
	want := 918.0 / 67072.0
	if cfg.FraudRatio != want {
		t.Fatalf("D1 fraud ratio %v", cfg.FraudRatio)
	}
}

func TestLabelsAndStoreHelpers(t *testing.T) {
	d := tinyWorld(t)
	labels := d.Labels()
	if len(labels) != len(d.Users) {
		t.Fatal("labels size mismatch")
	}
	n := 0
	for _, fraud := range labels {
		if fraud {
			n++
		}
	}
	if n != d.Positives() {
		t.Fatal("labels disagree with Positives")
	}
	if d.Store().Len() != len(d.Logs) {
		t.Fatal("store lost logs")
	}
}

// TestRingCampaignTemporalAggregation: application times within a ring
// cluster tightly (Fig. 4c assumption).
func TestRingCampaignTemporalAggregation(t *testing.T) {
	d := tinyWorld(t)
	byRing := map[int][]time.Time{}
	for i := range d.Users {
		u := &d.Users[i]
		if u.Ring >= 0 {
			byRing[u.Ring] = append(byRing[u.Ring], u.AppTime)
		}
	}
	if len(byRing) == 0 {
		t.Fatal("no rings generated")
	}
	for ring, times := range byRing {
		if len(times) < 2 {
			continue
		}
		min, max := times[0], times[0]
		for _, tm := range times[1:] {
			if tm.Before(min) {
				min = tm
			}
			if tm.After(max) {
				max = tm
			}
		}
		if max.Sub(min) > 2*d.Config.RingCampaignSpread+time.Hour {
			t.Fatalf("ring %d app times spread %v beyond campaign window", ring, max.Sub(min))
		}
	}
}
