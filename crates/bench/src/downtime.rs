//! Downtime arithmetic and the nines classification — the operator-facing
//! units for the availability numbers the engines produce.

use std::time::Duration;

/// Hours in a (non-leap) year.
pub const HOURS_PER_YEAR: f64 = 8760.0;

/// Expected downtime per year for a steady-state availability.
pub fn downtime_per_year(availability: f64) -> Duration {
    assert!(
        (0.0..=1.0).contains(&availability),
        "availability out of range: {availability}"
    );
    Duration::from_secs_f64((1.0 - availability) * HOURS_PER_YEAR * 3600.0)
}

/// The number of leading nines of an availability (the industry "class"):
/// 0.99169… → 2, 0.9999 → 4. Zero for A < 0.9; saturates at 9 (beyond
/// that, f64 resolution is the limit, not the service).
pub fn nines(availability: f64) -> u32 {
    assert!(
        (0.0..=1.0).contains(&availability),
        "availability out of range: {availability}"
    );
    if availability >= 1.0 {
        return 9;
    }
    let mut n = 0;
    let mut threshold = 0.9;
    while availability >= threshold && n < 9 {
        n += 1;
        threshold = 1.0 - (1.0 - threshold) / 10.0;
    }
    n
}

/// Renders a duration in the `"72 h 42 min"` form used by the reports.
pub fn render_downtime(d: Duration) -> String {
    let total_minutes = d.as_secs() / 60;
    let hours = total_minutes / 60;
    let minutes = total_minutes % 60;
    if hours == 0 {
        format!("{minutes} min")
    } else {
        format!("{hours} h {minutes} min")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downtime_conversions() {
        let d = downtime_per_year(0.99);
        assert!((d.as_secs_f64() / 3600.0 - 87.6).abs() < 1e-9);
        assert_eq!(downtime_per_year(1.0), Duration::ZERO);
    }

    #[test]
    fn nines_classification() {
        assert_eq!(nines(0.8), 0);
        assert_eq!(nines(0.9), 1);
        assert_eq!(nines(0.99169), 2);
        assert_eq!(nines(0.999), 3);
        assert_eq!(nines(0.99999), 5);
        assert_eq!(nines(1.0), 9);
    }

    #[test]
    fn rendering() {
        assert_eq!(
            render_downtime(Duration::from_secs(72 * 3600 + 42 * 60)),
            "72 h 42 min"
        );
        assert_eq!(render_downtime(Duration::from_secs(600)), "10 min");
    }

    #[test]
    fn usi_service_is_two_nines_with_72h_yearly_downtime() {
        // Anchors the case-study headline numbers.
        let a = 0.991699164;
        assert_eq!(nines(a), 2);
        let yearly = downtime_per_year(a);
        assert!((yearly.as_secs_f64() / 3600.0 - 72.7).abs() < 0.1);
    }
}
