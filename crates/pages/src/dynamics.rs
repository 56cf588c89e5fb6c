//! Load-context types: when, who, and on what device a page is loaded.
//!
//! A [`LoadContext`] is everything outside the page itself that influences
//! which URLs a load fetches — the four sources of variation from the
//! paper's Figure 8: wall-clock time (content flux), a per-load nonce
//! (intrinsically unpredictable resources), the user's cookies
//! (personalization), and the device class (responsive variants).

/// Device classes; the paper evaluates a Nexus 6 (large phone) and compares
/// stable sets against a OnePlus 3 (another phone) and Nexus 10 (tablet) in
/// Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// OnePlus-3-class phone.
    PhoneSmall,
    /// Nexus-6-class phone — the paper's reference device.
    PhoneLarge,
    /// Nexus-10-class tablet.
    Tablet,
}

impl DeviceClass {
    /// The coarse responsive-design bucket servers key most variants on.
    pub fn bucket(self) -> &'static str {
        match self {
            DeviceClass::PhoneSmall | DeviceClass::PhoneLarge => "phone",
            DeviceClass::Tablet => "tablet",
        }
    }

    /// Device pixel ratio, used by the minority of sites that key variants
    /// on exact resolution.
    pub fn dpr(self) -> f64 {
        match self {
            DeviceClass::PhoneSmall => 2.5,
            DeviceClass::PhoneLarge => 3.5,
            DeviceClass::Tablet => 2.0,
        }
    }

    /// CPU speed relative to the reference Nexus-6-class device
    /// (multiplier on processing times; < 1 is faster).
    pub fn cpu_factor(self) -> f64 {
        match self {
            DeviceClass::PhoneSmall => 1.1,
            DeviceClass::PhoneLarge => 1.0,
            DeviceClass::Tablet => 0.85,
        }
    }

    /// All device classes.
    pub fn all() -> [DeviceClass; 3] {
        [
            DeviceClass::PhoneSmall,
            DeviceClass::PhoneLarge,
            DeviceClass::Tablet,
        ]
    }
}

/// The context of one page load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadContext {
    /// Wall-clock time of the load, in hours since an arbitrary epoch.
    pub hours: f64,
    /// Identity of the user (hash of their cookie jar).
    pub user_id: u64,
    /// The loading device.
    pub device: DeviceClass,
    /// Per-load randomness (ad auction ids, cache busters).
    pub nonce: u64,
}

impl LoadContext {
    /// A reference context: Nexus-6-class phone, user 0, epoch hour 1000.
    pub fn reference() -> Self {
        LoadContext {
            hours: 1000.0,
            user_id: 0,
            device: DeviceClass::PhoneLarge,
            nonce: 0,
        }
    }

    /// Same moment, fresh nonce — a back-to-back reload.
    pub fn back_to_back(&self, nonce: u64) -> Self {
        LoadContext { nonce, ..*self }
    }

    /// The same load shifted by `dh` hours (new nonce supplied).
    pub fn later(&self, dh: f64, nonce: u64) -> Self {
        LoadContext {
            hours: self.hours + dh,
            nonce,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_group_phones_together() {
        assert_eq!(
            DeviceClass::PhoneSmall.bucket(),
            DeviceClass::PhoneLarge.bucket()
        );
        assert_ne!(
            DeviceClass::PhoneLarge.bucket(),
            DeviceClass::Tablet.bucket()
        );
    }

    #[test]
    fn context_builders() {
        let c = LoadContext::reference();
        assert_eq!(c.back_to_back(9).nonce, 9);
        assert_eq!(c.back_to_back(9).hours, c.hours);
        assert_eq!(c.later(24.0, 1).hours, c.hours + 24.0);
    }
}
