"""Streaming 3D perception toolkit: latency-aware sAP evaluation, a
Kalman forecasting baseline, feature-flow fusion, a motion-consistency
loss and large-kernel backbone structure checks."""

from .geometry import Box3D, bev_corners, iou_bev, iou_3d, iou_matrix
from .kitti_io import DEFAULT_EVAL_RANGE, LabeledBox, apply_range_filter, difficulty_of, parse_tracking_labels
from .grid_ops import ConvSpec, bilinear_resize, bilinear_sample, conv2d, max_pool, transpose_conv2d
from .feature_flow import compute_flow, fuse, shift_set, similarity_volume, argmax_flow, warp_pseudo_next
from .motion_loss import mcl, offset_loss, pose_offset, smooth_l1, total_loss
from .forecast import StreamerTracker, TrackState, forecast_boxes, kf_predict, kf_update, streamer_step
from .streaming_sim import StreamSchedule, build_schedule, pair_stream
from .metrics import Difficulty, ap_r40, evaluate_pairs, match_frame
from .lkbb import ComplexityReport, LayerSpec, complexity, lka_forward, lkbb_fuse, receptive_field

__version__ = "0.1.0"
