package services

import "prudentia/internal/cca"

// Year selects a deployment era for services whose stacks changed during
// the study (Obs 13 / Fig 9a: Google Drive moved from BBRv1.0 to BBRv3
// and YouTube tuned its QUIC stack between 2022 and 2023).
type Year int

const (
	// Year2022 is the study's first measurement period.
	Year2022 Year = 2022
	// Year2023 is the June–September 2023 period most results use.
	Year2023 Year = 2023
)

// quicTuned returns the BBR variant modelling YouTube's 2023 QUIC stack:
// BBRv1-class behaviour with the recovery-conservation and idle-restart
// handling that made the service markedly less timid under loss than the
// 2022 deployment (Fig 9a).
func quicTuned() cca.BBRVariant { return cca.BBRLinux515() }

// quic2022 returns the 2022-era YouTube QUIC BBR: 4.15-class dynamics
// with a reduced ProbeBW cwnd gain, which surrendered throughput to
// competing bulk flows.
func quic2022() cca.BBRVariant {
	v := cca.BBRLinux415()
	v.CwndGainProbeBW = 1.5
	return v
}

// megaBBR returns the BBR flavour Mega's servers exhibit: BBRv1 probing
// signatures (what the CCA classifier detects, §3.2) but a much larger
// in-flight cap than stock kernels. The paper's own evidence points
// here: Mega holds the deepest bottleneck queues (Fig 13), induces the
// most loss of any service (Fig 12, 8% at 8 Mbps), behaves unlike five
// stock iPerf BBR flows (Obs 4), and the authors note "it is also
// possible that Mega is running a slightly different version of BBR".
func megaBBR() cca.BBRVariant {
	v := cca.BBRLinux415()
	v.CwndGainProbeBW = 3.0
	return v
}

// YouTube returns the YouTube video model for the given era.
func YouTube(y Year) *Video {
	switch y {
	case Year2022:
		v := NewYouTube(BBRFactory(quic2022()))
		// The 2022 player was also more conservative after backoffs.
		return v
	default:
		return NewYouTube(BBRFactory(quicTuned()))
	}
}

// GoogleDrive returns the Google Drive model for the given era.
func GoogleDrive(y Year) *FileTransfer {
	if y == Year2022 {
		return NewGoogleDrive(BBRFactory(cca.BBRLinux415()))
	}
	return NewGoogleDrive(BBRv3Factory())
}

// Catalog returns the full Table 1 service list in its 2023 (latest
// measurement period) configuration.
//
//	Service          Category       CCA             Max Xput  Flows
//	YouTube          Video          BBRv1 (QUIC)    13 Mbps   1
//	Netflix          Video          NewReno          8 Mbps   4
//	Vimeo            Video          BBR             14 Mbps   2
//	Dropbox          File Transfer  BBRv1.0         ∞         1
//	Google Drive     File Transfer  BBRv3           ∞         1
//	OneDrive         File Transfer  Cubic (ext.)    45 Mbps   1
//	Mega             File Transfer  BBR             ∞         5
//	Google Meet      RTC            GCC             1.5 Mbps  1
//	Microsoft Teams  RTC            Unknown         2.6 Mbps  1
//	wikipedia.org    Web            BBRv1.0         ∞         >5
//	news.google.com  Web            BBRv3.0         ∞         >20
//	youtube.com      Web            BBRv3.0         ∞         >10
//	iPerf (BBR)      Baseline       BBRv1 (5.15)    ∞         1
//	iPerf (Cubic)    Baseline       Cubic           ∞         1
//	iPerf (Reno)     Baseline       NewReno         ∞         1
func Catalog() []Service {
	return []Service{
		YouTube(Year2023),
		NewNetflix(RenoFactory()),
		NewVimeo(BBRFactory(cca.BBRLinux415())),
		NewDropbox(BBRFactory(cca.BBRLinux415())),
		GoogleDrive(Year2023),
		NewOneDrive(CubicExtendedFactory()),
		NewMega(BBRFactory(megaBBR())),
		NewGoogleMeet(),
		NewMicrosoftTeams(),
		NewWikipedia(BBRFactory(cca.BBRLinux415())),
		NewGoogleNews(BBRv3Factory()),
		NewYouTubeWeb(BBRv3Factory()),
		NewIPerf("iPerf (BBR)", 1, BBRFactory(cca.BBRLinux515())),
		NewIPerf("iPerf (Cubic)", 1, CubicFactory()),
		NewIPerf("iPerf (Reno)", 1, RenoFactory()),
	}
}

// ThroughputCatalog returns the subset the Fig 2 heatmaps cover: video,
// file transfer, and the iPerf baselines (RTC and web services are
// evaluated with QoE metrics in §5 instead).
func ThroughputCatalog() []Service {
	var out []Service
	for _, s := range Catalog() {
		switch s.Category() {
		case CategoryVideo, CategoryFile, CategoryBaseline:
			out = append(out, s)
		}
	}
	return out
}

// ByName finds a catalog service by its Table 1 name (nil if absent).
func ByName(name string) Service {
	for _, s := range Catalog() {
		if s.Name() == name {
			return s
		}
	}
	// Special multi-flow baselines used by Obs 4 and future-work probes.
	switch name {
	case "iPerf (5xBBR)":
		return NewIPerf("iPerf (5xBBR)", 5, BBRFactory(cca.BBRLinux415()))
	case "iPerf (BBR 4.15)":
		return NewIPerf("iPerf (BBR 4.15)", 1, BBRFactory(cca.BBRLinux415()))
	}
	return nil
}
