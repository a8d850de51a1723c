//! Typed engineering quantities for the OASYS analog-synthesis reproduction.
//!
//! Analog design equations mix volts, amps, farads, hertz and micrometers
//! freely; confusing a `Cox` in F/m² with one in fF/µm² silently ruins a
//! sizing computation. This crate provides thin `f64` newtypes for the
//! quantities that cross crate boundaries (specifications, process
//! parameters, datasheets), each carrying:
//!
//! * constructors from the natural engineering magnitude
//!   (e.g. [`Capacitance::from_pico`]),
//! * accessors back to SI base units ([`Capacitance::farads`]),
//! * arithmetic against scalars and like quantities,
//! * engineering-notation [`std::fmt::Display`] (`"5.00 pF"`), and
//! * SI-suffix parsing (`"5p"`, `"2.2meg"`, `"100n"`) via [`std::str::FromStr`].
//!
//! A handful of cross-unit operations used by the device equations are also
//! provided (`V / Ω = A`, `A / V = S`, `S / F` → rad/s, …).
//!
//! # Examples
//!
//! ```
//! use oasys_units::{Capacitance, Voltage, Decibels};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let load: Capacitance = "5p".parse()?;
//! assert_eq!(load, Capacitance::from_pico(5.0));
//! assert_eq!(load.to_string(), "5.00 pF");
//!
//! let gain = Decibels::new(40.0);
//! assert!((gain.to_voltage_ratio() - 100.0).abs() < 1e-9);
//!
//! let v = Voltage::new(2.5) + Voltage::from_milli(500.0);
//! assert!((v.volts() - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod parse;

pub use parse::ParseQuantityError;

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Formats a raw SI magnitude in engineering notation with the given unit
/// symbol, e.g. `eng(5.0e-12, "F") == "5.00 pF"`.
///
/// Exponents outside the femto–tera range fall back to scientific notation.
///
/// # Examples
///
/// ```
/// assert_eq!(oasys_units::eng(5.0e-12, "F"), "5.00 pF");
/// assert_eq!(oasys_units::eng(2.2e6, "Hz"), "2.20 MHz");
/// assert_eq!(oasys_units::eng(0.0, "V"), "0.00 V");
/// ```
pub fn eng(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0.00 {unit}");
    }
    if !value.is_finite() {
        return format!("{value} {unit}");
    }
    let magnitude = value.abs();
    let exp3 = (magnitude.log10() / 3.0).floor() as i32;
    let exp3 = exp3.clamp(-5, 4);
    let prefix = match exp3 {
        -5 => "f",
        -4 => "p",
        -3 => "n",
        -2 => "µ",
        -1 => "m",
        0 => "",
        1 => "k",
        2 => "M",
        3 => "G",
        4 => "T",
        _ => unreachable!("exp3 clamped to [-5, 4]"),
    };
    let scaled = value / 10f64.powi(exp3 * 3);
    // Three-to-four significant digits, matching datasheet conventions.
    if scaled.abs() >= 100.0 {
        format!("{scaled:.1} {prefix}{unit}")
    } else {
        format!("{scaled:.2} {prefix}{unit}")
    }
}

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:literal, $base:ident
        $(, alt: [$(($alt_ctor:ident, $alt_get:ident, $scale:expr)),* $(,)?])?
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a magnitude in SI base units.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the magnitude in SI base units.
            #[must_use]
            pub const fn $base(self) -> f64 {
                self.0
            }

            /// Returns the absolute value of this quantity.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` if the magnitude is a finite number.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the dimensionless ratio `self / other`.
            ///
            /// Dividing by a zero quantity yields an infinite or NaN ratio,
            /// exactly as `f64` division does.
            #[must_use]
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }

            $($(
                /// Creates a quantity from the indicated engineering magnitude.
                #[must_use]
                pub fn $alt_ctor(value: f64) -> Self {
                    Self(value * $scale)
                }

                /// Returns the magnitude in the indicated engineering unit.
                #[must_use]
                pub fn $alt_get(self) -> f64 {
                    self.0 / $scale
                }
            )*)?
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&eng(self.0, $unit))
            }
        }

        impl FromStr for $name {
            type Err = ParseQuantityError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                parse::parse_si(s, $unit).map(Self)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }
    };
}

quantity!(
    /// An electric potential in volts.
    Voltage, "V", volts,
    alt: [(from_milli, millivolts, 1e-3), (from_micro, microvolts, 1e-6)]
);

quantity!(
    /// An electric current in amperes.
    Current, "A", amps,
    alt: [
        (from_milli, milliamps, 1e-3),
        (from_micro, microamps, 1e-6),
        (from_nano, nanoamps, 1e-9),
    ]
);

quantity!(
    /// A capacitance in farads.
    Capacitance, "F", farads,
    alt: [
        (from_pico, picofarads, 1e-12),
        (from_femto, femtofarads, 1e-15),
        (from_nano, nanofarads, 1e-9),
    ]
);

quantity!(
    /// A resistance in ohms.
    Resistance, "Ω", ohms,
    alt: [(from_kilo, kilohms, 1e3), (from_mega, megohms, 1e6)]
);

quantity!(
    /// A frequency in hertz.
    Frequency, "Hz", hertz,
    alt: [(from_kilo, kilohertz, 1e3), (from_mega, megahertz, 1e6), (from_giga, gigahertz, 1e9)]
);

quantity!(
    /// A transconductance in siemens.
    Conductance, "S", siemens,
    alt: [(from_micro, microsiemens, 1e-6), (from_milli, millisiemens, 1e-3)]
);

quantity!(
    /// A power in watts.
    Power, "W", watts,
    alt: [(from_milli, milliwatts, 1e-3), (from_micro, microwatts, 1e-6)]
);

quantity!(
    /// A length in meters. Device geometry is usually expressed in µm.
    Length, "m", meters,
    alt: [(from_micro, micrometers, 1e-6), (from_nano, nanometers, 1e-9)]
);

quantity!(
    /// An area in square meters. Layout area is usually expressed in µm².
    Area, "m²", square_meters,
    alt: [(from_square_micro, square_micrometers, 1e-12)]
);

quantity!(
    /// A slew rate in volts per second. Datasheets quote V/µs.
    SlewRate, "V/s", volts_per_second,
    alt: [(from_volts_per_micro, volts_per_microsecond, 1e6)]
);

quantity!(
    /// A time duration in seconds.
    Time, "s", seconds,
    alt: [(from_micro, microseconds, 1e-6), (from_nano, nanoseconds, 1e-9)]
);

impl Div<Resistance> for Voltage {
    type Output = Current;
    fn div(self, rhs: Resistance) -> Current {
        Current::new(self.volts() / rhs.ohms())
    }
}

impl Div<Current> for Voltage {
    type Output = Resistance;
    fn div(self, rhs: Current) -> Resistance {
        Resistance::new(self.volts() / rhs.amps())
    }
}

impl Mul<Resistance> for Current {
    type Output = Voltage;
    fn mul(self, rhs: Resistance) -> Voltage {
        Voltage::new(self.amps() * rhs.ohms())
    }
}

impl Mul<Current> for Resistance {
    type Output = Voltage;
    fn mul(self, rhs: Current) -> Voltage {
        rhs * self
    }
}

impl Div<Voltage> for Current {
    type Output = Conductance;
    fn div(self, rhs: Voltage) -> Conductance {
        Conductance::new(self.amps() / rhs.volts())
    }
}

impl Mul<Voltage> for Conductance {
    type Output = Current;
    fn mul(self, rhs: Voltage) -> Current {
        Current::new(self.siemens() * rhs.volts())
    }
}

impl Mul<Current> for Voltage {
    type Output = Power;
    fn mul(self, rhs: Current) -> Power {
        Power::new(self.volts() * rhs.amps())
    }
}

impl Mul<Length> for Length {
    type Output = Area;
    fn mul(self, rhs: Length) -> Area {
        Area::new(self.meters() * rhs.meters())
    }
}

impl Conductance {
    /// Reciprocal conductance as a resistance.
    ///
    /// A zero conductance yields an infinite resistance.
    ///
    /// # Examples
    ///
    /// ```
    /// use oasys_units::Conductance;
    /// let g = Conductance::from_micro(100.0);
    /// assert!((g.to_resistance().kilohms() - 10.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn to_resistance(self) -> Resistance {
        Resistance::new(1.0 / self.siemens())
    }
}

impl Resistance {
    /// Reciprocal resistance as a conductance.
    ///
    /// A zero resistance yields an infinite conductance.
    #[must_use]
    pub fn to_conductance(self) -> Conductance {
        Conductance::new(1.0 / self.ohms())
    }
}

impl Frequency {
    /// The angular frequency `2πf` in radians per second.
    #[must_use]
    pub fn radians_per_second(self) -> f64 {
        2.0 * std::f64::consts::PI * self.hertz()
    }

    /// Creates a frequency from an angular frequency in radians per second.
    #[must_use]
    pub fn from_radians_per_second(omega: f64) -> Self {
        Self::new(omega / (2.0 * std::f64::consts::PI))
    }
}

/// A voltage gain (or loss) expressed in decibels (`20·log10` convention).
///
/// # Examples
///
/// ```
/// use oasys_units::Decibels;
/// let g = Decibels::from_voltage_ratio(1000.0);
/// assert!((g.db() - 60.0).abs() < 1e-9);
/// assert!((g.to_voltage_ratio() - 1000.0).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Decibels(f64);

impl Decibels {
    /// Zero decibels (unity gain).
    pub const ZERO: Self = Self(0.0);

    /// Creates a value directly in decibels.
    #[must_use]
    pub const fn new(db: f64) -> Self {
        Self(db)
    }

    /// Returns the value in decibels.
    #[must_use]
    pub const fn db(self) -> f64 {
        self.0
    }

    /// Converts a linear voltage ratio to decibels (`20·log10(ratio)`).
    ///
    /// Non-positive ratios produce `-inf` or NaN, following `f64::log10`.
    #[must_use]
    pub fn from_voltage_ratio(ratio: f64) -> Self {
        Self(20.0 * ratio.log10())
    }

    /// Converts back to a linear voltage ratio.
    #[must_use]
    pub fn to_voltage_ratio(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }
}

impl fmt::Debug for Decibels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Decibels({})", self.0)
    }
}

impl fmt::Display for Decibels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

impl Add for Decibels {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Decibels {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Neg for Decibels {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

/// An angle in degrees, used for phase margins and phase responses.
///
/// # Examples
///
/// ```
/// use oasys_units::Degrees;
/// let pm = Degrees::new(60.0);
/// assert!((pm.radians() - std::f64::consts::FRAC_PI_3).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(f64);

impl Degrees {
    /// Zero degrees.
    pub const ZERO: Self = Self(0.0);

    /// Creates an angle in degrees.
    #[must_use]
    pub const fn new(deg: f64) -> Self {
        Self(deg)
    }

    /// Returns the angle in degrees.
    #[must_use]
    pub const fn degrees(self) -> f64 {
        self.0
    }

    /// Returns the angle in radians.
    #[must_use]
    pub fn radians(self) -> f64 {
        self.0.to_radians()
    }

    /// Creates an angle from radians.
    #[must_use]
    pub fn from_radians(rad: f64) -> Self {
        Self(rad.to_degrees())
    }
}

impl fmt::Debug for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Degrees({})", self.0)
    }
}

impl fmt::Display for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}°", self.0)
    }
}

impl Add for Degrees {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Degrees {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Neg for Degrees {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formats_common_magnitudes() {
        assert_eq!(eng(5.0e-12, "F"), "5.00 pF");
        assert_eq!(eng(2.5, "V"), "2.50 V");
        assert_eq!(eng(1.0e6, "Hz"), "1.00 MHz");
        assert_eq!(eng(-3.3e-3, "A"), "-3.30 mA");
        assert_eq!(eng(0.0, "V"), "0.00 V");
        assert_eq!(eng(999.0, "Ω"), "999.0 Ω");
    }

    #[test]
    fn eng_handles_extremes() {
        // Outside femto..tera the prefix clamps rather than panicking.
        assert!(eng(1e20, "Hz").contains('T'));
        assert!(eng(1e-20, "F").contains('f'));
        assert!(eng(f64::INFINITY, "V").contains("inf"));
    }

    #[test]
    fn voltage_arithmetic() {
        let a = Voltage::new(1.5);
        let b = Voltage::from_milli(500.0);
        assert!(((a + b).volts() - 2.0).abs() < 1e-12);
        assert!(((a - b).volts() - 1.0).abs() < 1e-12);
        assert!(((a * 2.0).volts() - 3.0).abs() < 1e-12);
        assert!(((a / 3.0).volts() - 0.5).abs() < 1e-12);
        assert!(((-a).volts() + 1.5).abs() < 1e-12);
    }

    #[test]
    fn ohms_law_cross_units() {
        let v = Voltage::new(5.0);
        let r = Resistance::from_kilo(1.0);
        let i = v / r;
        assert!((i.milliamps() - 5.0).abs() < 1e-9);
        assert!(((i * r).volts() - 5.0).abs() < 1e-9);
        assert!(((v / i).ohms() - 1000.0).abs() < 1e-6);
        let g = i / v;
        assert!((g.millisiemens() - 1.0).abs() < 1e-9);
        let p = v * i;
        assert!((p.milliwatts() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn conductance_resistance_reciprocals() {
        let g = Conductance::from_micro(50.0);
        let r = g.to_resistance();
        assert!((r.kilohms() - 20.0).abs() < 1e-9);
        assert!((r.to_conductance().microsiemens() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_angular_roundtrip() {
        let f = Frequency::from_mega(1.0);
        let w = f.radians_per_second();
        let f2 = Frequency::from_radians_per_second(w);
        assert!((f.ratio(f2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn decibel_roundtrip() {
        for ratio in [1.0, 10.0, 316.2278, 1e5] {
            let db = Decibels::from_voltage_ratio(ratio);
            assert!((db.to_voltage_ratio() / ratio - 1.0).abs() < 1e-9);
        }
        assert!((Decibels::from_voltage_ratio(100.0).db() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn degrees_radians_roundtrip() {
        let d = Degrees::new(45.0);
        assert!((d.radians() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((Degrees::from_radians(d.radians()).degrees() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn length_area_product() {
        let w = Length::from_micro(10.0);
        let l = Length::from_micro(5.0);
        let a = w * l;
        assert!((a.square_micrometers() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn slew_rate_units() {
        let sr = SlewRate::from_volts_per_micro(2.0);
        assert!((sr.volts_per_second() - 2.0e6).abs() < 1e-3);
    }

    #[test]
    fn min_max_abs() {
        let a = Current::from_micro(10.0);
        let b = Current::from_micro(-20.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert!((b.abs().microamps() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_currents() {
        let total: Current = [10.0, 20.0, 30.0]
            .iter()
            .map(|&ua| Current::from_micro(ua))
            .sum();
        assert!((total.microamps() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(Capacitance::from_pico(5.0).to_string(), "5.00 pF");
        assert_eq!(Current::from_micro(25.0).to_string(), "25.00 µA");
        assert_eq!(Decibels::new(66.0).to_string(), "66.0 dB");
        assert_eq!(Degrees::new(32.0).to_string(), "32.0°");
    }

    #[test]
    fn debug_is_nonempty_and_named() {
        let s = format!("{:?}", Voltage::new(1.0));
        assert!(s.contains("Voltage"));
    }

    #[test]
    fn quantities_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Voltage>();
        assert_send_sync::<Decibels>();
        assert_send_sync::<Degrees>();
    }
}
