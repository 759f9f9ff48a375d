//! Civil (proleptic Gregorian) calendar conversions.
//!
//! Implements Howard Hinnant's `days_from_civil` / `civil_from_days`
//! algorithms, which convert between a `(year, month, day)` triple and a day
//! count relative to 1970-01-01. They are exact for the entire range we care
//! about and require no lookup tables.

/// A broken-down UTC date-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CivilDateTime {
    pub year: i64,
    pub month: u32,
    pub day: u32,
    pub hour: u32,
    pub minute: u32,
    pub second: u32,
}

impl CivilDateTime {
    /// Convert a Unix timestamp (seconds) to a civil date-time in UTC.
    pub fn from_unix(secs: u64) -> CivilDateTime {
        let days = (secs / 86_400) as i64;
        let rem = secs % 86_400;
        let (year, month, day) = civil_from_days(days);
        CivilDateTime {
            year,
            month,
            day,
            hour: (rem / 3_600) as u32,
            minute: ((rem / 60) % 60) as u32,
            second: (rem % 60) as u32,
        }
    }

    /// Convert back to a Unix timestamp. Returns `None` for pre-epoch dates.
    pub fn to_unix(&self) -> Option<u64> {
        let days = days_from_civil(self.year, self.month, self.day);
        if days < 0 {
            return None;
        }
        Some(
            days as u64 * 86_400
                + self.hour as u64 * 3_600
                + self.minute as u64 * 60
                + self.second as u64,
        )
    }
}

/// Number of days from 1970-01-01 to `year-month-day`.
pub(crate) fn days_from_civil(year: i64, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (month as u64 + 9) % 12; // March-based month [0, 11]
    let doy = (153 * mp + 2) / 5 + day as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Inverse of [`days_from_civil`].
pub(crate) fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// True when `year` is a Gregorian leap year.
    fn is_leap(year: i64) -> bool {
        year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
    }

    /// Days in a given month.
    fn days_in_month(year: i64, month: u32) -> u32 {
        match month {
            1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
            4 | 6 | 9 | 11 => 30,
            2 if is_leap(year) => 29,
            2 => 28,
            _ => 0,
        }
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // 2026-07-04 is 20638 days after the epoch.
        assert_eq!(days_from_civil(2026, 7, 4), 20_638);
        assert_eq!(civil_from_days(20_638), (2026, 7, 4));
        // Leap day.
        assert_eq!(civil_from_days(days_from_civil(2024, 2, 29)), (2024, 2, 29));
    }

    #[test]
    fn from_unix_breakdown() {
        let dt = CivilDateTime::from_unix(20_638 * 86_400 + 9 * 3_600 + 30 * 60 + 15);
        assert_eq!((dt.year, dt.month, dt.day), (2026, 7, 4));
        assert_eq!((dt.hour, dt.minute, dt.second), (9, 30, 15));
        assert_eq!(
            dt.to_unix().unwrap(),
            20_638 * 86_400 + 9 * 3_600 + 30 * 60 + 15
        );
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2024));
        assert!(!is_leap(2026));
        assert!(!is_leap(1900));
        assert!(is_leap(2000));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2026, 2), 28);
        assert_eq!(days_in_month(2026, 12), 31);
    }

    proptest! {
        #[test]
        fn civil_roundtrip(days in 0i64..200_000) {
            let (y, m, d) = civil_from_days(days);
            prop_assert_eq!(days_from_civil(y, m, d), days);
            prop_assert!((1..=12).contains(&m));
            prop_assert!((1..=days_in_month(y, m)).contains(&d));
        }

        #[test]
        fn unix_roundtrip(secs in 0u64..20_000_000_000) {
            let dt = CivilDateTime::from_unix(secs);
            prop_assert_eq!(dt.to_unix(), Some(secs));
        }

        #[test]
        fn days_monotonic(days in 0i64..200_000) {
            let a = civil_from_days(days);
            let b = civil_from_days(days + 1);
            prop_assert!(b > a || (b.0 > a.0));
        }
    }
}
