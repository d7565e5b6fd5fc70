//! Grayscale image container used by the synthetic camera and the detectors.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::VisionError;

/// A row-major grayscale image with `f32` luminance samples in `[0, 1]`.
///
/// The synthetic camera renders into this type and both marker detectors read
/// from it. A tiny, dependency-free image type is all the pipeline needs; it
/// stands in for the `cv::Mat` frames the paper's OpenCV / TPH-YOLO stack
/// consumes.
///
/// # Examples
///
/// ```
/// use mls_vision::GrayImage;
///
/// let mut img = GrayImage::new(64, 48);
/// img.set(10, 10, 0.75);
/// assert_eq!(img.get(10, 10), 0.75);
/// assert_eq!(img.get_clamped(-5, 1000), img.get(0, 47));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrayImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl GrayImage {
    /// Creates a black image of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates an image filled with a constant luminance.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        let mut img = Self::new(width, height);
        img.data.fill(value);
        img
    }

    /// Creates an image from raw row-major samples.
    ///
    /// # Errors
    ///
    /// Returns [`VisionError::DimensionMismatch`] when `data.len()` does not
    /// equal `width * height`.
    pub fn from_raw(width: usize, height: usize, data: Vec<f32>) -> Result<Self, VisionError> {
        if data.len() != width * height || width == 0 || height == 0 {
            return Err(VisionError::DimensionMismatch {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data,
        })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw sample buffer (row major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw sample buffer (row major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Luminance at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds"
        );
        self.data[y * self.width + x]
    }

    /// Luminance at the pixel nearest to `(x, y)` after clamping to the image
    /// bounds; accepts signed coordinates.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Sets the luminance at `(x, y)`, clamping the value into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, value: f32) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds"
        );
        self.data[y * self.width + x] = value.clamp(0.0, 1.0);
    }

    /// Bilinear sample at fractional pixel coordinates, clamped to the image.
    ///
    /// Non-finite coordinates (which can arise from degenerate homographies)
    /// sample as black.
    ///
    /// Points in the interior, `0 <= x < width - 1` and `0 <= y < height - 1`
    /// (`-0.0` included), take a fast path: there the clamps are no-ops,
    /// `floor` is truncation and no neighbour is clamped, so it reads the two
    /// row pairs directly with the same interpolation expression, bit for
    /// bit. Everything else (NaN, infinities, negative coordinates, the last
    /// row and column, off-image points) takes the general path.
    #[inline]
    pub fn sample_bilinear(&self, x: f64, y: f64) -> f32 {
        let (w, h) = (self.width, self.height);
        if !(x >= 0.0 && y >= 0.0 && x < (w - 1) as f64 && y < (h - 1) as f64) {
            return self.sample_bilinear_clamped(x, y);
        }
        let (x0, y0) = (x as usize, y as usize);
        let fx = (x - x0 as f64) as f32;
        let fy = (y - y0 as f64) as f32;
        let i = y0 * w + x0;
        let (r0, r1) = (&self.data[i..i + 2], &self.data[i + w..i + w + 2]);
        let top = r0[0] * (1.0 - fx) + r0[1] * fx;
        let bottom = r1[0] * (1.0 - fx) + r1[1] * fx;
        top * (1.0 - fy) + bottom * fy
    }

    /// [`GrayImage::sample_bilinear`] for any point: clamps the coordinates
    /// to `[-1, size + 1]` and each neighbour to the image.
    // Kept out of line so that the interior path stays small enough to
    // inline into the soft decode's sampling loop; letting this inline too
    // lost about half of the decode's measured speedup.
    #[inline(never)]
    fn sample_bilinear_clamped(&self, x: f64, y: f64) -> f32 {
        if !x.is_finite() || !y.is_finite() {
            return 0.0;
        }
        let x = x.clamp(-1.0, self.width as f64 + 1.0);
        let y = y.clamp(-1.0, self.height as f64 + 1.0);
        let x0 = floor_to_i64(x);
        let y0 = floor_to_i64(y);
        let fx = (x - x0 as f64) as f32;
        let fy = (y - y0 as f64) as f32;
        // The four neighbours, clamped to the image exactly as
        // `get_clamped` would clamp them, one clamp per coordinate.
        let max_x = self.width as i64 - 1;
        let max_y = self.height as i64 - 1;
        let cx0 = x0.clamp(0, max_x) as usize;
        let cx1 = (x0 + 1).clamp(0, max_x) as usize;
        let row0 = y0.clamp(0, max_y) as usize * self.width;
        let row1 = (y0 + 1).clamp(0, max_y) as usize * self.width;
        let d = &self.data;
        let top = d[row0 + cx0] * (1.0 - fx) + d[row0 + cx1] * fx;
        let bottom = d[row1 + cx0] * (1.0 - fx) + d[row1 + cx1] * fx;
        top * (1.0 - fy) + bottom * fy
    }

    /// Mean luminance of the whole image.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Minimum and maximum luminance.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Mean luminance inside the axis-aligned pixel rectangle
    /// `[x0, x1) x [y0, y1)`, intersected with the image bounds.
    ///
    /// Returns the global mean when the rectangle is empty after clipping.
    pub fn region_mean(&self, x0: i64, y0: i64, x1: i64, y1: i64) -> f32 {
        let x0 = x0.max(0) as usize;
        let y0 = y0.max(0) as usize;
        let x1 = (x1.max(0) as usize).min(self.width);
        let y1 = (y1.max(0) as usize).min(self.height);
        if x0 >= x1 || y0 >= y1 {
            return self.mean();
        }
        let mut sum = 0.0f64;
        for y in y0..y1 {
            let row = &self.data[y * self.width + x0..y * self.width + x1];
            sum += row.iter().map(|&v| v as f64).sum::<f64>();
        }
        (sum / ((x1 - x0) * (y1 - y0)) as f64) as f32
    }

    /// Computes the summed-area (integral) table of the image.
    ///
    /// The returned [`IntegralImage`] answers rectangle-sum queries in O(1)
    /// and is the workhorse of the adaptive threshold in the classical
    /// detector.
    pub fn integral(&self) -> IntegralImage {
        IntegralImage::from_image(self)
    }

    /// Returns a copy of the image convolved with a `radius`-pixel box blur.
    ///
    /// A radius of zero returns an unmodified copy.
    pub fn box_blurred(&self, radius: usize) -> GrayImage {
        if radius == 0 {
            return self.clone();
        }
        let integral = self.integral();
        let mut out = GrayImage::new(self.width, self.height);
        let r = radius as i64;
        for y in 0..self.height {
            for x in 0..self.width {
                let mean = integral.region_mean(
                    x as i64 - r,
                    y as i64 - r,
                    x as i64 + r + 1,
                    y as i64 + r + 1,
                );
                out.data[y * self.width + x] = mean;
            }
        }
        out
    }

    /// Downsamples the image by an integer factor using block averaging.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or larger than either dimension.
    pub fn downsampled(&self, factor: usize) -> GrayImage {
        assert!(
            factor > 0 && factor <= self.width && factor <= self.height,
            "invalid downsample factor"
        );
        let nw = self.width / factor;
        let nh = self.height / factor;
        let mut out = GrayImage::new(nw, nh);
        for y in 0..nh {
            for x in 0..nw {
                let mut sum = 0.0f32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        sum += self.get(x * factor + dx, y * factor + dy);
                    }
                }
                out.set(x, y, sum / (factor * factor) as f32);
            }
        }
        out
    }

    /// Global standard deviation of the luminance.
    pub fn std_dev(&self) -> f32 {
        let mean = self.mean() as f64;
        let var = self
            .data
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64;
        var.sqrt() as f32
    }
}

impl fmt::Display for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GrayImage {}x{} (mean {:.3})",
            self.width,
            self.height,
            self.mean()
        )
    }
}

/// `x.floor() as i64` without the `floor` libm call that `f64::floor`
/// compiles to on baseline x86-64 (which has no SSE4.1 `roundsd`).
///
/// Truncation rounds toward zero, so it overshoots the floor by exactly one
/// for negative non-integers; the comparison steps those back down. The
/// result equals `x.floor() as i64` for every finite `x` whose floor fits in
/// an `i64`, which covers the `[-1, size + 1]` range `sample_bilinear`
/// clamps to.
#[inline]
fn floor_to_i64(x: f64) -> i64 {
    let t = x as i64;
    t - i64::from(t as f64 > x)
}

/// Summed-area table supporting O(1) rectangle mean queries.
///
/// # Examples
///
/// ```
/// use mls_vision::GrayImage;
///
/// let img = GrayImage::filled(10, 10, 0.5);
/// let integral = img.integral();
/// assert!((integral.region_mean(0, 0, 10, 10) - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct IntegralImage {
    width: usize,
    height: usize,
    // (width + 1) x (height + 1) table, first row/column zero.
    table: Vec<f64>,
}

impl IntegralImage {
    /// Builds the integral table for `image`.
    pub fn from_image(image: &GrayImage) -> Self {
        let w = image.width();
        let h = image.height();
        let stride = w + 1;
        let mut table = vec![0.0f64; stride * (h + 1)];
        for y in 0..h {
            let mut row_sum = 0.0f64;
            for x in 0..w {
                row_sum += image.get(x, y) as f64;
                table[(y + 1) * stride + (x + 1)] = table[y * stride + (x + 1)] + row_sum;
            }
        }
        Self {
            width: w,
            height: h,
            table,
        }
    }

    /// Sum of the luminance in the rectangle `[x0, x1) x [y0, y1)` clipped to
    /// the image bounds.
    pub fn region_sum(&self, x0: i64, y0: i64, x1: i64, y1: i64) -> f64 {
        let stride = self.width + 1;
        let x0 = x0.clamp(0, self.width as i64) as usize;
        let y0 = y0.clamp(0, self.height as i64) as usize;
        let x1 = x1.clamp(0, self.width as i64) as usize;
        let y1 = y1.clamp(0, self.height as i64) as usize;
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        self.table[y1 * stride + x1] - self.table[y0 * stride + x1] - self.table[y1 * stride + x0]
            + self.table[y0 * stride + x0]
    }

    /// Mean luminance in the rectangle `[x0, x1) x [y0, y1)` clipped to the
    /// image bounds. Returns `0.0` for an empty rectangle.
    pub fn region_mean(&self, x0: i64, y0: i64, x1: i64, y1: i64) -> f32 {
        let cx0 = x0.clamp(0, self.width as i64);
        let cy0 = y0.clamp(0, self.height as i64);
        let cx1 = x1.clamp(0, self.width as i64);
        let cy1 = y1.clamp(0, self.height as i64);
        let area = ((cx1 - cx0).max(0) * (cy1 - cy0).max(0)) as f64;
        if area == 0.0 {
            return 0.0;
        }
        (self.region_sum(x0, y0, x1, y1) / area) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.get(0, 0), 0.0);
        img.set(3, 2, 2.0); // clamped to 1.0
        assert_eq!(img.get(3, 2), 1.0);
        img.set(1, 1, -0.5); // clamped to 0.0
        assert_eq!(img.get(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = GrayImage::new(0, 10);
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(GrayImage::from_raw(2, 2, vec![0.0; 4]).is_ok());
        let err = GrayImage::from_raw(2, 2, vec![0.0; 5]).unwrap_err();
        assert!(format!("{err}").contains("expected"));
    }

    #[test]
    fn clamped_access() {
        let mut img = GrayImage::new(3, 3);
        img.set(0, 0, 0.25);
        img.set(2, 2, 0.75);
        assert_eq!(img.get_clamped(-10, -10), 0.25);
        assert_eq!(img.get_clamped(100, 100), 0.75);
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut img = GrayImage::new(2, 1);
        img.set(0, 0, 0.0);
        img.set(1, 0, 1.0);
        assert!((img.sample_bilinear(0.5, 0.0) - 0.5).abs() < 1e-6);
        assert!((img.sample_bilinear(0.0, 0.0) - 0.0).abs() < 1e-6);
        assert!((img.sample_bilinear(1.0, 0.0) - 1.0).abs() < 1e-6);
    }

    /// The sampler before the interior fast path: every point clamped.
    fn reference_sample_bilinear(img: &GrayImage, x: f64, y: f64) -> f32 {
        if !x.is_finite() || !y.is_finite() {
            return 0.0;
        }
        let x = x.clamp(-1.0, img.width as f64 + 1.0);
        let y = y.clamp(-1.0, img.height as f64 + 1.0);
        let x0 = x.floor() as i64;
        let y0 = y.floor() as i64;
        let fx = (x - x0 as f64) as f32;
        let fy = (y - y0 as f64) as f32;
        let top = img.get_clamped(x0, y0) * (1.0 - fx) + img.get_clamped(x0 + 1, y0) * fx;
        let bottom =
            img.get_clamped(x0, y0 + 1) * (1.0 - fx) + img.get_clamped(x0 + 1, y0 + 1) * fx;
        top * (1.0 - fy) + bottom * fy
    }

    #[test]
    fn sample_bilinear_matches_the_clamped_sampler_bit_for_bit() {
        let (w, h) = (160usize, 120usize);
        let data = (0..w * h)
            .map(|i| (i * 7919 % 1009) as f32 / 1009.0)
            .collect();
        let img = GrayImage::from_raw(w, h, data).unwrap();
        let axis = |size: usize| {
            let last = (size - 1) as f64;
            let mut v = vec![
                0.0,
                -0.0,
                last,
                last.next_down(),
                last.next_up(),
                size as f64,
                size as f64 + 1.0,
                size as f64 + 1.5,
                1e9,
                -1e-300,
                -0.3,
                -1.0,
                -2.5,
                -1e9,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for i in 0..=(size + 1) {
                let k = i as f64;
                v.extend([k, k.next_down(), k.next_up(), k + 0.25, k + 0.5, k + 0.999]);
            }
            v
        };
        let (xs, ys) = (axis(w), axis(h));
        let mut interior = 0;
        for &y in &ys {
            for &x in &xs {
                let got = img.sample_bilinear(x, y);
                let want = reference_sample_bilinear(&img, x, y);
                assert_eq!(got.to_bits(), want.to_bits(), "sample at ({x:e}, {y:e})");
                if (0.0..(w - 1) as f64).contains(&x) && (0.0..(h - 1) as f64).contains(&y) {
                    interior += 1;
                }
            }
        }
        assert!(
            interior > xs.len() * ys.len() / 2,
            "sweep misses the interior"
        );
    }

    #[test]
    fn floor_to_i64_matches_libm_floor() {
        let width = 160.0f64;
        let mut xs = vec![-1.0, -0.5, -0.0, 0.0, 0.5, width, width + 1.0];
        for i in -1..=161 {
            let k = i as f64;
            xs.extend([k, k.next_down(), k.next_up(), k - 0.5, k + 0.25]);
        }
        for x in xs.into_iter().filter(|x| (-1.0..=width + 1.0).contains(x)) {
            assert_eq!(floor_to_i64(x), x.floor() as i64, "floor({x:e})");
        }
    }

    #[test]
    fn statistics() {
        let img = GrayImage::filled(8, 8, 0.25);
        assert!((img.mean() - 0.25).abs() < 1e-6);
        assert!(img.std_dev() < 1e-6);
        let (lo, hi) = img.min_max();
        assert_eq!(lo, 0.25);
        assert_eq!(hi, 0.25);
    }

    #[test]
    fn region_mean_matches_integral() {
        let mut img = GrayImage::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                img.set(x, y, ((x + y) % 5) as f32 / 5.0);
            }
        }
        let integral = img.integral();
        for (x0, y0, x1, y1) in [(0, 0, 16, 16), (2, 3, 10, 12), (5, 5, 6, 6)] {
            let direct = img.region_mean(x0, y0, x1, y1);
            let fast = integral.region_mean(x0, y0, x1, y1);
            assert!(
                (direct - fast).abs() < 1e-5,
                "mismatch for ({x0},{y0},{x1},{y1})"
            );
        }
    }

    #[test]
    fn integral_clipping_and_empty() {
        let img = GrayImage::filled(4, 4, 1.0);
        let integral = img.integral();
        assert!((integral.region_sum(-5, -5, 100, 100) - 16.0).abs() < 1e-9);
        assert_eq!(integral.region_sum(2, 2, 2, 2), 0.0);
        assert_eq!(integral.region_mean(3, 3, 3, 10), 0.0);
    }

    #[test]
    fn box_blur_preserves_constant_images() {
        let img = GrayImage::filled(10, 10, 0.6);
        let blurred = img.box_blurred(2);
        for &v in blurred.data() {
            assert!((v - 0.6).abs() < 1e-5);
        }
        // Radius zero is an exact copy.
        assert_eq!(img.box_blurred(0), img);
    }

    #[test]
    fn box_blur_smooths_edges() {
        let mut img = GrayImage::new(11, 1);
        for x in 0..11 {
            img.set(x, 0, if x < 5 { 0.0 } else { 1.0 });
        }
        let blurred = img.box_blurred(2);
        let edge = blurred.get(5, 0);
        assert!(
            edge > 0.1 && edge < 0.9,
            "edge should be smoothed, got {edge}"
        );
    }

    #[test]
    fn downsample_averages_blocks() {
        let mut img = GrayImage::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                img.set(x, y, if x < 2 { 0.0 } else { 1.0 });
            }
        }
        let small = img.downsampled(2);
        assert_eq!(small.width(), 2);
        assert_eq!(small.height(), 2);
        assert!((small.get(0, 0) - 0.0).abs() < 1e-6);
        assert!((small.get(1, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", GrayImage::new(2, 2)).is_empty());
    }
}
